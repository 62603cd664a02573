package ckpt

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/mpi"
)

func TestFileRoundTrip(t *testing.T) {
	fc := NewFile(filepath.Join(t.TempDir(), "state.ckpt"))
	if _, _, ok, err := fc.Load(); err != nil || ok {
		t.Fatalf("fresh checkpointer: ok=%v err=%v", ok, err)
	}
	payload := mpi.AppendMarshal(nil, []float64{1.5, -2.25, 3e-9})
	if err := fc.Save(17, payload); err != nil {
		t.Fatal(err)
	}
	step, got, ok, err := fc.Load()
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if step != 17 {
		t.Fatalf("step = %d, want 17", step)
	}
	vals, err := mpi.Unmarshal[float64](got)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || vals[0] != 1.5 || vals[1] != -2.25 || vals[2] != 3e-9 {
		t.Fatalf("payload corrupted: %v", vals)
	}
}

func TestFileSaveReplaces(t *testing.T) {
	fc := NewFile(filepath.Join(t.TempDir(), "state.ckpt"))
	for s := 1; s <= 3; s++ {
		if err := fc.Save(s, []byte{byte(s)}); err != nil {
			t.Fatal(err)
		}
	}
	step, payload, ok, err := fc.Load()
	if err != nil || !ok || step != 3 || len(payload) != 1 || payload[0] != 3 {
		t.Fatalf("latest checkpoint lost: step=%d payload=%v ok=%v err=%v", step, payload, ok, err)
	}
	// The staging files must not accumulate.
	entries, err := os.ReadDir(filepath.Dir(fc.Path()))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("stray staging files: %v", entries)
	}
}

func TestFileDetectsCorruption(t *testing.T) {
	fc := NewFile(filepath.Join(t.TempDir(), "state.ckpt"))
	if err := fc.Save(5, []byte("centroids")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(fc.Path())
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF // flip a payload byte
	if err := os.WriteFile(fc.Path(), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := fc.Load(); err == nil {
		t.Fatal("corrupted payload loaded without error")
	}
	// Truncation (torn write) must also be rejected.
	if err := os.WriteFile(fc.Path(), raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := fc.Load(); err == nil {
		t.Fatal("torn checkpoint loaded without error")
	}
	// A non-checkpoint file must be rejected, not misparsed.
	if err := os.WriteFile(fc.Path(), []byte("#!/bin/sh\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := fc.Load(); err == nil {
		t.Fatal("foreign file loaded as checkpoint")
	}
}

func TestMemCheckpointer(t *testing.T) {
	m := NewMem()
	if _, _, ok, _ := m.Load(); ok {
		t.Fatal("fresh mem checkpointer has a checkpoint")
	}
	if err := m.Save(2, []byte{9}); err != nil {
		t.Fatal(err)
	}
	step, p, ok, err := m.Load()
	if err != nil || !ok || step != 2 || p[0] != 9 {
		t.Fatalf("mem round trip: %d %v %v %v", step, p, ok, err)
	}
	p[0] = 42 // mutating the returned copy must not touch the stored state
	_, p2, _, _ := m.Load()
	if p2[0] != 9 {
		t.Fatal("Load returned aliased storage")
	}
	if m.Saves() != 1 {
		t.Fatalf("Saves() = %d", m.Saves())
	}
}

func TestDecodeRejectsBadLength(t *testing.T) {
	if _, err := mpi.Unmarshal[float64](make([]byte, 12)); err == nil {
		t.Fatal("12-byte payload decoded as float64s")
	}
}

// TestFileLoadsFloat64Format pins the bytes of a checkpoint file of two
// float64s, written out by hand: magic, step 7, payload length 16, the
// payload's CRC-32 and 1.5 and -2.25 as little-endian IEEE bits. The
// modules save their state with mpi.AppendMarshal and restore it with
// mpi.Unmarshal, so a codec change that moved these bytes would strand
// every checkpoint already on disk.
func TestFileLoadsFloat64Format(t *testing.T) {
	raw, err := hex.DecodeString("5250434b5054310a" + "0700000000000000" + "1000000000000000" + "0928fab7" +
		"000000000000f83f" + "00000000000002c0")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "state.ckpt")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	step, payload, ok, err := NewFile(path).Load()
	if err != nil || !ok || step != 7 {
		t.Fatalf("load: step=%d ok=%v err=%v", step, ok, err)
	}
	vals, err := mpi.Unmarshal[float64](payload)
	if err != nil || !slices.Equal(vals, []float64{1.5, -2.25}) {
		t.Fatalf("decoded %v, %v; want [1.5 -2.25]", vals, err)
	}
	if again := mpi.AppendMarshal(nil, vals); string(again) != string(payload) {
		t.Fatalf("re-encoded payload %x, want %x", again, payload)
	}
	fc := NewFile(filepath.Join(t.TempDir(), "resaved.ckpt"))
	if err := fc.Save(7, mpi.AppendMarshal(nil, vals)); err != nil {
		t.Fatal(err)
	}
	if resaved, err := os.ReadFile(fc.path); err != nil || string(resaved) != string(raw) {
		t.Fatalf("a save of the same state wrote %x, %v; want %x", resaved, err, raw)
	}
}

func TestSaveRejectsNegativeStep(t *testing.T) {
	if err := NewMem().Save(-1, nil); err == nil {
		t.Fatal("negative step accepted")
	}
	fc := NewFile(filepath.Join(t.TempDir(), "s"))
	if err := fc.Save(-1, nil); err == nil {
		t.Fatal("negative step accepted")
	}
}

// Path returns the checkpoint file location.
func (f *FileCheckpointer) Path() string { return f.path }

package ckpt

import (
	"os"
	"path/filepath"
	"testing"
)

func TestFileRoundTrip(t *testing.T) {
	fc := NewFile(filepath.Join(t.TempDir(), "state.ckpt"))
	if _, _, ok, err := fc.Load(); err != nil || ok {
		t.Fatalf("fresh checkpointer: ok=%v err=%v", ok, err)
	}
	payload := EncodeFloat64s([]float64{1.5, -2.25, 3e-9})
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
	vals, err := DecodeFloat64s(got)
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
	if _, err := DecodeFloat64s(make([]byte, 12)); err == nil {
		t.Fatal("12-byte payload decoded as float64s")
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

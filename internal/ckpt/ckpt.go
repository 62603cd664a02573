// Package ckpt provides iteration-granular checkpoint/restart for the
// teaching modules. A Checkpointer persists an opaque payload tagged
// with the step that produced it; on restart the computation reloads the
// latest checkpoint and resumes from that step, reproducing the
// uninterrupted run bit for bit (every module iteration is a
// deterministic function of the restored state and the input data).
//
// FileCheckpointer is crash-safe: checkpoints are written to a
// temporary file and atomically renamed over the previous one, and a
// CRC over the payload rejects torn or corrupted files on load — a
// failed save can lose at most the newest checkpoint, never corrupt an
// older one.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"
)

// Checkpointer saves and restores step-tagged payloads. Save replaces
// any previous checkpoint; Load returns the most recent one, with
// ok=false when no checkpoint exists yet.
type Checkpointer interface {
	Save(step int, payload []byte) error
	Load() (step int, payload []byte, ok bool, err error)
}

// magic identifies a checkpoint file and its format version.
const magic = "RPCKPT1\n"

// headerLen is magic + uint64 step + uint64 payload length + uint32 CRC.
const headerLen = len(magic) + 8 + 8 + 4

// FileCheckpointer persists checkpoints to a single file.
type FileCheckpointer struct {
	path string
}

// NewFile returns a FileCheckpointer writing to path. The file is
// created on the first Save; Load before that reports ok=false.
func NewFile(path string) *FileCheckpointer {
	return &FileCheckpointer{path: path}
}

// Save atomically replaces the checkpoint with (step, payload): the new
// checkpoint is staged in a temporary file in the same directory,
// synced, and renamed over the destination, so a crash mid-save leaves
// the previous checkpoint intact.
func (f *FileCheckpointer) Save(step int, payload []byte) error {
	if step < 0 {
		return fmt.Errorf("ckpt: negative step %d", step)
	}
	buf := make([]byte, headerLen+len(payload))
	copy(buf, magic)
	binary.LittleEndian.PutUint64(buf[len(magic):], uint64(step))
	binary.LittleEndian.PutUint64(buf[len(magic)+8:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(buf[len(magic)+16:], crc32.ChecksumIEEE(payload))
	copy(buf[headerLen:], payload)

	dir := filepath.Dir(f.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(f.path)+".tmp*")
	if err != nil {
		return fmt.Errorf("ckpt: stage checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: write checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: sync checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: close checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, f.path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("ckpt: commit checkpoint: %w", err)
	}
	return nil
}

// Load reads and validates the checkpoint. A missing file is not an
// error (ok=false); a malformed or corrupted file is.
func (f *FileCheckpointer) Load() (int, []byte, bool, error) {
	raw, err := os.ReadFile(f.path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil, false, nil
	}
	if err != nil {
		return 0, nil, false, fmt.Errorf("ckpt: read checkpoint: %w", err)
	}
	if len(raw) < headerLen || string(raw[:len(magic)]) != magic {
		return 0, nil, false, fmt.Errorf("ckpt: %s is not a checkpoint file", f.path)
	}
	step := binary.LittleEndian.Uint64(raw[len(magic):])
	plen := binary.LittleEndian.Uint64(raw[len(magic)+8:])
	sum := binary.LittleEndian.Uint32(raw[len(magic)+16:])
	if uint64(len(raw)-headerLen) != plen {
		return 0, nil, false, fmt.Errorf("ckpt: %s declares %d payload bytes, has %d (torn write?)", f.path, plen, len(raw)-headerLen)
	}
	payload := raw[headerLen:]
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, false, fmt.Errorf("ckpt: %s payload checksum mismatch (corrupted)", f.path)
	}
	if step > math.MaxInt32 {
		return 0, nil, false, fmt.Errorf("ckpt: %s declares implausible step %d", f.path, step)
	}
	return int(step), payload, true, nil
}

// MemCheckpointer keeps the checkpoint in memory — for tests and for
// simulating restarts within one process. Safe for concurrent use.
type MemCheckpointer struct {
	mu      sync.Mutex
	step    int
	payload []byte
	set     bool
	// Saves counts completed Save calls.
	saves int
}

// NewMem returns an empty in-memory checkpointer.
func NewMem() *MemCheckpointer { return &MemCheckpointer{} }

// Save stores a copy of payload as the current checkpoint.
func (m *MemCheckpointer) Save(step int, payload []byte) error {
	if step < 0 {
		return fmt.Errorf("ckpt: negative step %d", step)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.step = step
	m.payload = append(m.payload[:0], payload...)
	m.set = true
	m.saves++
	return nil
}

// Load returns a copy of the current checkpoint.
func (m *MemCheckpointer) Load() (int, []byte, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.set {
		return 0, nil, false, nil
	}
	return m.step, append([]byte(nil), m.payload...), true, nil
}

// Saves reports how many checkpoints have been committed.
func (m *MemCheckpointer) Saves() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.saves
}

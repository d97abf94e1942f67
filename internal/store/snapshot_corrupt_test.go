package store

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// buildSnapshotBytes produces a realistic snapshot: several arrays and trees
// with pseudo-random ciphertext-like contents and a marked epoch.
func buildSnapshotBytes(tb testing.TB) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	s := NewServer()
	for i := 0; i < 3; i++ {
		name := string(rune('a' + i))
		if err := s.CreateArray(name, 8); err != nil {
			tb.Fatal(err)
		}
		for j := int64(0); j < 8; j++ {
			ct := make([]byte, 1+rng.Intn(32))
			rng.Read(ct)
			if err := s.WriteCells(name, []int64{j}, [][]byte{ct}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	for i := 0; i < 2; i++ {
		name := string(rune('t' + i))
		if err := s.CreateTree(name, 4, 2); err != nil {
			tb.Fatal(err)
		}
		for leaf := uint32(0); leaf < 8; leaf++ {
			slots := make([][]byte, 8)
			for k := range slots {
				slots[k] = make([]byte, 16)
				rng.Read(slots[k])
			}
			if err := s.WritePath(name, leaf, slots); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := s.Checkpoint(5); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.SaveSnapshot(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotTruncationProperty is the property test behind crash safety:
// loading a snapshot truncated at EVERY byte offset must yield
// ErrCorruptSnapshot — never a panic, never a half-loaded server.
func TestSnapshotTruncationProperty(t *testing.T) {
	data := buildSnapshotBytes(t)
	for cut := 0; cut < len(data); cut++ {
		s := NewServer()
		if err := s.CreateArray("sentinel", 1); err != nil {
			t.Fatal(err)
		}
		err := func() (err error) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("LoadSnapshot panicked at truncation offset %d: %v", cut, p)
				}
			}()
			return s.LoadSnapshot(bytes.NewReader(data[:cut]))
		}()
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("truncation at %d/%d: err = %v, want ErrCorruptSnapshot", cut, len(data), err)
		}
		// A failed load must leave the server untouched.
		if _, aerr := s.ArrayLen("sentinel"); aerr != nil {
			t.Fatalf("truncation at %d: failed load clobbered existing state: %v", cut, aerr)
		}
	}
	// And the untruncated stream still loads.
	if err := NewServer().LoadSnapshot(bytes.NewReader(data)); err != nil {
		t.Fatalf("full snapshot rejected: %v", err)
	}
}

// TestSnapshotBitFlipProperty flips every byte (one at a time) and requires
// the loader to either reject with ErrCorruptSnapshot or — never — panic.
// (Every region is covered by magic, bounds, or CRC checks, so acceptance
// would mean silently loading corrupted state.)
func TestSnapshotBitFlipProperty(t *testing.T) {
	data := buildSnapshotBytes(t)
	flipped := make([]byte, len(data))
	for i := 0; i < len(data); i++ {
		copy(flipped, data)
		flipped[i] ^= 0x41
		s := NewServer()
		err := func() (err error) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("LoadSnapshot panicked with byte %d flipped: %v", i, p)
				}
			}()
			return s.LoadSnapshot(bytes.NewReader(flipped))
		}()
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("byte %d flipped: err = %v, want ErrCorruptSnapshot", i, err)
		}
	}
}

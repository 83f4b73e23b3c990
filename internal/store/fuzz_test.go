package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreRecord drives the crash-safety contract: write a record, cut the
// segment file at an arbitrary byte offset (a torn write), reopen, and
// require that recovery never panics and never serves a record that differs
// from what was written. Either the store misses (the tail was torn) or it
// returns the exact original.
func FuzzStoreRecord(f *testing.F) {
	f.Add("k", "output", 3, 0)
	f.Add("key-with-\x00-byte", "", 0, 4)
	f.Add("k2", "| table |\n| row |\n", 42, 1<<20)
	f.Fuzz(func(t *testing.T, key, output string, batches, cut int) {
		if key == "" {
			return // empty keys are not produced by IdentityKey
		}
		dir := t.TempDir()
		s, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		want := Result{Output: output, Batches: batches}
		s.Put(key, want)
		if got, ok := s.Get(key); !ok || got != want {
			t.Fatalf("pre-crash round trip failed: %+v, %v", got, ok)
		}
		s.Close()

		paths, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no segment files: %v", err)
		}
		info, err := os.Stat(paths[0])
		if err != nil {
			t.Fatalf("stat: %v", err)
		}
		// Normalize the fuzzed cut into [0, size]: cutting at size is the
		// clean case, anything less tears the record.
		size := info.Size()
		c := int64(cut)
		if c < 0 {
			c = -c
		}
		if size > 0 {
			c %= size + 1
		} else {
			c = 0
		}
		if err := os.Truncate(paths[0], c); err != nil {
			t.Fatalf("truncate: %v", err)
		}

		s2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("Open after torn write: %v", err)
		}
		defer s2.Close()
		if got, ok := s2.Get(key); ok && got != want {
			t.Fatalf("recovered store served corrupt record: got %+v, want %+v", got, want)
		}
		// The store must still accept writes after recovery.
		s2.Put(key, want)
		if got, ok := s2.Get(key); !ok || got != want {
			t.Fatalf("post-recovery write failed: %+v, %v", got, ok)
		}
	})
}

// FuzzDecodeRecord throws raw bytes at the frame decoder: it must never
// panic and must never claim to consume more bytes than it was given.
func FuzzDecodeRecord(f *testing.F) {
	if frame, err := encodeRecord(record{Key: []byte("k"), Output: []byte("v"), Batches: 1}); err == nil {
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := decodeRecord(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decodeRecord consumed %d of %d bytes", n, len(data))
		}
		// A successful decode must re-encode to a valid frame.
		if _, eerr := encodeRecord(rec); eerr != nil {
			t.Fatalf("decoded record does not re-encode: %v", eerr)
		}
		_ = fmt.Sprintf("%+v", rec)
	})
}

package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestIndexHeapPerEntry: the index costs a small fixed amount of heap per
// entry, whatever the key. 50k engine-shaped keys ("optimize|" + 64 hex
// digits) must grow the live heap by at most 128 B each.
func TestIndexHeapPerEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("50k puts")
	}
	const n = 50_000
	s := openTest(t, t.TempDir(), Config{CompactBytes: -1})
	payload := []byte(`{"bw":[1,2,3,4]}`)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("optimize|%064x", i)
		if err := s.Put("optimize", key, payload, 1); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if s.Len() != n {
		t.Fatalf("entries %d, want %d", s.Len(), n)
	}
	per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	t.Logf("index heap: %.1f B/entry", per)
	if per > 128 {
		t.Fatalf("index holds %.1f B of heap per entry, want ≤ 128", per)
	}
	runtime.KeepAlive(s)
}

// TestGetChecksStoredKey: a slot that points at another key's frame — a
// digest collision, or an index bug — is a miss, never that key's answer.
func TestGetChecksStoredKey(t *testing.T) {
	s := openTest(t, t.TempDir(), Config{})
	mustPut(t, s, "optimize", "optimize|a", []byte("answer-a"))
	mustPut(t, s, "optimize", "optimize|b", []byte("answer-b"))
	s.mu.Lock()
	s.index[sha256.Sum256([]byte("optimize|a"))] = s.index[sha256.Sum256([]byte("optimize|b"))]
	s.mu.Unlock()
	if data, _, ok := s.Get("optimize", "optimize|a"); ok {
		t.Fatalf("get optimize|a served %q from optimize|b's frame", data)
	}
	if got := mustGet(t, s, "optimize", "optimize|b"); !bytes.Equal(got, []byte("answer-b")) {
		t.Fatalf("get optimize|b = %q", got)
	}
	if st := s.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats %+v, want one miss and one hit", st)
	}
}

// TestOpensExistingDir: testdata/v1 was written by the store before its
// index was keyed by digest — a snapshot of three entries (one of them a
// validate entry that has since expired) plus a log of three more,
// one overwriting a snapshot entry. The same on-disk format must open and
// serve byte-identical payloads and elapsed times, and still compact.
func TestOpensExistingDir(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{logName, snapName} {
		data, err := os.ReadFile(filepath.Join("testdata", "v1", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The fixture was written from 2026-01-01T00:00Z (snapshot) to +30h
	// (log) with the default 24h validate TTL.
	now := time.Date(2026, 1, 2, 7, 0, 0, 0, time.UTC)
	cfg := Config{Now: func() time.Time { return now }, CompactBytes: -1}
	const (
		keyA = "optimize|6f1ed002ab5595859014ebf0951522d9a1f0e3b2c6a5e1f4b0b1b2c3d4e5f6a7"
		keyB = "optimize|0c7a1c1e9d3f4b5a6978d1e2f3a4b5c6d7e8f90a1b2c3d4e5f60718293a4b5c6"
		keyC = "optimize|ffeeddccbbaa99887766554433221100ffeeddccbbaa99887766554433221100"
	)
	want := []struct {
		kind, key string
		data      string
		elapsedMS float64
	}{
		{"optimize", keyA, `{"bw":[340.6,84.8,56.4,18.2],"iter_s":21.37}`, 13.0625},
		{"optimize", keyB, "binary\x00\xff\x01payload", 0.75},
		{"optimize", keyC, `{"bw":[250,250]}`, 3.125},
		{"validate", "validate|quick", `{"evaluated":8,"skipped":2}`, 101},
	}
	check := func(s *Store, phase string) {
		t.Helper()
		for _, w := range want {
			data, elapsed, ok := s.Get(w.kind, w.key)
			if !ok || string(data) != w.data || elapsed != w.elapsedMS {
				t.Errorf("%s: get %s = %q, %v, %v; want %q, %v", phase, w.key, data, elapsed, ok, w.data, w.elapsedMS)
			}
		}
		if data, _, ok := s.Get("validate", "validate|default"); ok {
			t.Errorf("%s: expired validate|default served %q", phase, data)
		}
	}
	s := openTest(t, dir, cfg)
	if s.Len() != 5 {
		t.Fatalf("entries %d, want 5 (the expired one still indexed until read)", s.Len())
	}
	check(s, "open")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	check(s, "compacted")
	s.Close()
	check(openTest(t, dir, cfg), "reopened")
}

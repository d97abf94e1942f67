package transport

import (
	"testing"

	"github.com/oblivfd/oblivfd/internal/store"
)

// TestPoolAllocsPerCall bounds the allocations of one loopback call
// through a Pool, client and server together (AllocsPerRun counts every
// goroutine's allocations). The limits are what these calls cost before
// the client and pool became store.Funcs; they may fall, never rise.
func TestPoolAllocsPerCall(t *testing.T) {
	addr := startPoolServer(t)
	p, err := DialPool(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	idx := []int64{1, 2}
	cts := [][]byte{{1}, {2}}
	ops := []store.BatchOp{{Name: "a", Idx: idx}, {Write: true, Name: "a", Idx: idx, Cts: cts}}
	for _, tc := range []struct {
		op    string
		limit float64
		run   func() error
	}{
		{"ReadCells", 11, func() error { _, err := p.ReadCells("a", idx); return err }},
		{"WriteCells", 12, func() error { return p.WriteCells("a", idx, cts) }},
		{"Batch", 19, func() error { _, err := store.DoBatch(p, ops); return err }},
	} {
		got := testing.AllocsPerRun(200, func() {
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.1f allocs/call", tc.op, got)
		if got > tc.limit {
			t.Errorf("%s: %.1f allocs per loopback call, want at most %.0f", tc.op, got, tc.limit)
		}
	}
}

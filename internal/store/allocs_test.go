package store

import (
	"testing"

	"github.com/oblivfd/oblivfd/internal/telemetry"
)

// TestDecoratorStackAllocs bounds what a decorator stack costs per call: a
// whole stack shares one Call, so it may allocate at most one object more
// than the bare backend.
func TestDecoratorStackAllocs(t *testing.T) {
	srv := NewServer()
	if err := srv.CreateArray("a", 8); err != nil {
		t.Fatal(err)
	}
	stack := WithMetrics(WithRetry(WithFaults(srv, FaultConfig{}), RetryPolicy{Seed: 1}), telemetry.New())
	idx := []int64{1, 2}
	cts := [][]byte{{1}, {2}}
	for _, tc := range []struct {
		op  string
		run func(Service) error
	}{
		{"ReadCells", func(s Service) error { _, err := s.ReadCells("a", idx); return err }},
		{"WriteCells", func(s Service) error { return s.WriteCells("a", idx, cts) }},
	} {
		measure := func(s Service) float64 {
			return testing.AllocsPerRun(200, func() {
				if err := tc.run(s); err != nil {
					t.Fatal(err)
				}
			})
		}
		bare, stacked := measure(srv), measure(stack)
		t.Logf("%s: bare %.1f, stacked %.1f allocs/call", tc.op, bare, stacked)
		if stacked > bare+1 {
			t.Errorf("%s: stack allocates %.1f per call, bare backend %.1f: more than one extra", tc.op, stacked, bare)
		}
	}
}

package transport

import (
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/oblivfd/oblivfd/internal/store"
)

// TestDecoratorConformanceLoopback is the transport half of the store's
// TestDecoratorConformance: every operation through a Client, a Pool, a
// FailoverPool and a session-bound Client over loopback TCP reaches a
// recording backend with its inputs intact (a session adds only its
// namespace), results come back unchanged, and a Batch stays one backend
// call. A namespaced Checkpoint or Stats is refused before any frame is
// sent: frames carry no namespace, so it must never land on the session's.
func TestDecoratorConformanceLoopback(t *testing.T) {
	out := [][]byte{{0xAA, 1}, {0xBB, 2}}
	stats := store.Stats{Objects: 3, StoredBytes: 99, Epoch: 4}
	var (
		mu  sync.Mutex
		got []store.Call
	)
	backend := store.Func(func(c *store.Call) error {
		mu.Lock()
		got = append(got, store.Call{Op: c.Op, Name: c.Name, DB: c.DB, N: c.N, Levels: c.Levels,
			Slots: c.Slots, Leaf: c.Leaf, Value: c.Value, Idx: c.Idx, Cts: c.Cts, Ops: c.Ops})
		mu.Unlock()
		switch c.Op {
		case store.OpArrayLen:
			c.Len = 7
		case store.OpReadCells, store.OpReadPath:
			c.Out = out
		case store.OpStats:
			c.Stats = stats
		case store.OpBatch:
			c.BatchOut = make([][][]byte, len(c.Ops))
			for i, op := range c.Ops {
				if !op.Write {
					c.BatchOut[i] = out[:len(op.Idx)]
				}
			}
		}
		return nil
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = Serve(l, backend) }()
	defer l.Close()
	addr := l.Addr().String()

	idx := []int64{4, 2}
	cts := [][]byte{{1, 2, 3}, {4}}
	ops := []store.BatchOp{
		{Name: "a", Idx: idx},
		{Write: true, Name: "b", Idx: idx[:1], Cts: cts[:1]},
		{Name: "a", Idx: idx[1:]},
	}
	calls := []store.Call{
		{Op: store.OpCreateArray, Name: "a", N: 8},
		{Op: store.OpArrayLen, Name: "a"},
		{Op: store.OpReadCells, Name: "a", Idx: idx},
		{Op: store.OpWriteCells, Name: "a", Idx: idx, Cts: cts},
		{Op: store.OpCreateTree, Name: "t", Levels: 5, Slots: 4},
		{Op: store.OpReadPath, Name: "t", Leaf: 9},
		{Op: store.OpWritePath, Name: "t", Leaf: 9, Cts: cts},
		{Op: store.OpWriteBuckets, Name: "t", N: 3, Cts: cts},
		{Op: store.OpDelete, Name: "t"},
		{Op: store.OpReveal, Name: "fd", Value: -7},
		{Op: store.OpStats},
		{Op: store.OpCheckpoint, Value: 5},
		{Op: store.OpBatch, Ops: ops},
		{Op: store.OpStats, DB: "other"},
		{Op: store.OpCheckpoint, DB: "other", Value: 6},
	}
	wantOut := func(c store.Call) store.Call {
		switch c.Op {
		case store.OpArrayLen:
			c.Len = 7
		case store.OpReadCells, store.OpReadPath:
			c.Out = out
		case store.OpStats:
			c.Stats = stats
		case store.OpBatch:
			c.BatchOut = [][][]byte{out[:2], nil, out[:1]}
		}
		return c
	}
	session := func(c store.Call) store.Call {
		switch c.Op {
		case store.OpCheckpoint, store.OpStats:
			c.DB = "alpha"
		case store.OpBatch:
			c.Ops = append([]store.BatchOp(nil), c.Ops...)
			for i := range c.Ops {
				c.Ops[i].Name = "alpha/" + c.Ops[i].Name
			}
		default:
			c.Name = "alpha/" + c.Name
		}
		return c
	}

	cfg := DefaultClientConfig()
	alpha := cfg
	alpha.Database = "alpha"
	type conn interface {
		store.Service
		Close() error
	}
	for _, tc := range []struct {
		name    string
		dial    func() (conn, error)
		rewrite func(store.Call) store.Call
	}{
		{"Client", func() (conn, error) { return DialWith(addr, cfg) }, nil},
		{"Pool", func() (conn, error) { return DialPoolWith(addr, 2, cfg) }, nil},
		{"FailoverPool", func() (conn, error) { return DialFailover([]string{addr}, 2, cfg) }, nil},
		{"session Client", func() (conn, error) { return DialWith(addr, alpha) }, session},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, err := tc.dial()
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			for _, in := range calls {
				label := in.Op.String()
				if in.DB != "" {
					label += "NS"
				}
				mu.Lock()
				got = nil // drop dial-time probes and earlier calls
				mu.Unlock()
				c := in
				err := store.Apply(svc, &c)
				mu.Lock()
				received := got
				mu.Unlock()
				if in.DB != "" {
					if err == nil || !strings.Contains(err.Error(), "namespace") || len(received) != 0 {
						t.Errorf("%s: err %v after %d backend calls; want a namespace error and none", label, err, len(received))
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want := in
				if tc.rewrite != nil {
					want = tc.rewrite(in)
				}
				if len(received) != 1 || !reflect.DeepEqual(received[0], want) {
					t.Errorf("%s: backend received %+v, want one call %+v", label, received, want)
				}
				if w := wantOut(in); !reflect.DeepEqual(c, w) {
					t.Errorf("%s: call came back as %+v, want %+v", label, c, w)
				}
			}
		})
	}
}

package store

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/oblivfd/oblivfd/internal/telemetry"
)

// recordingBackend is a Service, Batcher and NamespaceService that records
// the inputs of every call it receives and answers with fixed results.
type recordingBackend struct{ got []Call }

var (
	cannedOut   = [][]byte{{0xAA, 1}, {0xBB, 2}}
	cannedStats = Stats{Objects: 3, StoredBytes: 99, Epoch: 4}
)

func (r *recordingBackend) rec(c Call) { r.got = append(r.got, c) }

func (r *recordingBackend) CreateArray(name string, n int) error {
	r.rec(Call{Op: OpCreateArray, Name: name, N: n})
	return nil
}

func (r *recordingBackend) ArrayLen(name string) (int, error) {
	r.rec(Call{Op: OpArrayLen, Name: name})
	return 7, nil
}

func (r *recordingBackend) ReadCells(name string, idx []int64) ([][]byte, error) {
	r.rec(Call{Op: OpReadCells, Name: name, Idx: idx})
	return cannedOut, nil
}

func (r *recordingBackend) WriteCells(name string, idx []int64, cts [][]byte) error {
	r.rec(Call{Op: OpWriteCells, Name: name, Idx: idx, Cts: cts})
	return nil
}

func (r *recordingBackend) CreateTree(name string, levels, slots int) error {
	r.rec(Call{Op: OpCreateTree, Name: name, Levels: levels, Slots: slots})
	return nil
}

func (r *recordingBackend) ReadPath(name string, leaf uint32) ([][]byte, error) {
	r.rec(Call{Op: OpReadPath, Name: name, Leaf: leaf})
	return cannedOut, nil
}

func (r *recordingBackend) WritePath(name string, leaf uint32, slots [][]byte) error {
	r.rec(Call{Op: OpWritePath, Name: name, Leaf: leaf, Cts: slots})
	return nil
}

func (r *recordingBackend) WriteBuckets(name string, start int, slots [][]byte) error {
	r.rec(Call{Op: OpWriteBuckets, Name: name, N: start, Cts: slots})
	return nil
}

func (r *recordingBackend) Delete(name string) error {
	r.rec(Call{Op: OpDelete, Name: name})
	return nil
}

func (r *recordingBackend) Reveal(tag string, value int64) error {
	r.rec(Call{Op: OpReveal, Name: tag, Value: value})
	return nil
}

func (r *recordingBackend) Checkpoint(epoch int64) error { return r.CheckpointNS("", epoch) }

func (r *recordingBackend) Stats() (Stats, error) { return r.StatsNS("") }

func (r *recordingBackend) CheckpointNS(db string, epoch int64) error {
	r.rec(Call{Op: OpCheckpoint, DB: db, Value: epoch})
	return nil
}

func (r *recordingBackend) StatsNS(db string) (Stats, error) {
	r.rec(Call{Op: OpStats, DB: db})
	return cannedStats, nil
}

func (r *recordingBackend) Batch(ops []BatchOp) ([][][]byte, error) {
	r.rec(Call{Op: OpBatch, Ops: append([]BatchOp(nil), ops...)})
	out := make([][][]byte, len(ops))
	for i, op := range ops {
		if !op.Write {
			out[i] = cannedOut
		}
	}
	return out, nil
}

// conformanceCall is one operation driven through a decorator: its inputs
// as a Call, and how to issue it through the public API.
type conformanceCall struct {
	in  Call
	run func(Service) (any, error)
}

// conformanceCalls covers every Op, plus namespaced Checkpoint and Stats.
func conformanceCalls() []conformanceCall {
	idx := []int64{4, 2}
	cts := [][]byte{{1, 2, 3}, {4}}
	ops := []BatchOp{
		{Name: "a", Idx: idx},
		{Write: true, Name: "b", Idx: idx[:1], Cts: cts[:1]},
		{Name: "a", Idx: idx[1:]},
	}
	return []conformanceCall{
		{Call{Op: OpCreateArray, Name: "a", N: 8}, func(s Service) (any, error) { return nil, s.CreateArray("a", 8) }},
		{Call{Op: OpArrayLen, Name: "a"}, func(s Service) (any, error) { return s.ArrayLen("a") }},
		{Call{Op: OpReadCells, Name: "a", Idx: idx}, func(s Service) (any, error) { return s.ReadCells("a", idx) }},
		{Call{Op: OpWriteCells, Name: "a", Idx: idx, Cts: cts}, func(s Service) (any, error) { return nil, s.WriteCells("a", idx, cts) }},
		{Call{Op: OpCreateTree, Name: "t", Levels: 5, Slots: 4}, func(s Service) (any, error) { return nil, s.CreateTree("t", 5, 4) }},
		{Call{Op: OpReadPath, Name: "t", Leaf: 9}, func(s Service) (any, error) { return s.ReadPath("t", 9) }},
		{Call{Op: OpWritePath, Name: "t", Leaf: 9, Cts: cts}, func(s Service) (any, error) { return nil, s.WritePath("t", 9, cts) }},
		{Call{Op: OpWriteBuckets, Name: "t", N: 3, Cts: cts}, func(s Service) (any, error) { return nil, s.WriteBuckets("t", 3, cts) }},
		{Call{Op: OpDelete, Name: "t"}, func(s Service) (any, error) { return nil, s.Delete("t") }},
		{Call{Op: OpReveal, Name: "fd", Value: -7}, func(s Service) (any, error) { return nil, s.Reveal("fd", -7) }},
		{Call{Op: OpStats}, func(s Service) (any, error) { return s.Stats() }},
		{Call{Op: OpCheckpoint, Value: 5}, func(s Service) (any, error) { return nil, s.Checkpoint(5) }},
		{Call{Op: OpBatch, Ops: ops}, func(s Service) (any, error) { return DoBatch(s, ops) }},
		{Call{Op: OpStats, DB: "other"}, func(s Service) (any, error) { return StatsIn(s, "other") }},
		{Call{Op: OpCheckpoint, DB: "other", Value: 6}, func(s Service) (any, error) { return nil, CheckpointIn(s, "other", 6) }},
	}
}

// wantResult is what a call returns when every layer passes the backend's
// results through unchanged.
func wantResult(c Call) any {
	switch c.Op {
	case OpArrayLen:
		return 7
	case OpReadCells, OpReadPath:
		return cannedOut
	case OpStats:
		return cannedStats
	case OpBatch:
		out := make([][][]byte, len(c.Ops))
		for i, op := range c.Ops {
			if !op.Write {
				out[i] = cannedOut
			}
		}
		return out
	}
	return nil
}

// splitOps is the op-by-op form of a Batch call.
func splitOps(c Call) []Call {
	var calls []Call
	for _, op := range c.Ops {
		if op.Write {
			calls = append(calls, Call{Op: OpWriteCells, Name: op.Name, Idx: op.Idx, Cts: op.Cts})
		} else {
			calls = append(calls, Call{Op: OpReadCells, Name: op.Name, Idx: op.Idx})
		}
	}
	return calls
}

// TestDecoratorConformance drives every operation through every decorator
// to a recording backend: inputs must arrive unchanged (Namespaced adds
// only its prefix), results must come back unchanged, a Batch must stay one
// backend call except through the per-op fault injector, and neither the
// caller's inputs nor an applied Call's input fields may change.
func TestDecoratorConformance(t *testing.T) {
	prefixed := func(c Call) Call {
		switch c.Op {
		case OpCheckpoint, OpStats:
			c.DB = "t0"
		case OpBatch:
			ops := make([]BatchOp, len(c.Ops))
			for i, op := range c.Ops {
				op.Name = "t0/" + op.Name
				ops[i] = op
			}
			c.Ops = ops
		default:
			c.Name = "t0/" + c.Name
		}
		return c
	}
	for _, w := range []struct {
		name     string
		wrap     func(Service) Service
		perOp    bool            // a Batch reaches the backend op by op
		rewrite  func(Call) Call // how inputs legitimately change on the way
		refuseNS bool            // a namespaced Checkpoint/Stats is an error
	}{
		{name: "Func", wrap: func(s Service) Service { return Func(func(c *Call) error { return Apply(s, c) }) }},
		{name: "WithLatency", wrap: func(s Service) Service { return WithLatency(s, time.Nanosecond) }},
		{name: "WithMetrics", wrap: func(s Service) Service { return WithMetrics(s, telemetry.New()) }},
		{name: "WithRoundCounter", wrap: func(s Service) Service { return WithRoundCounter(s) }},
		{name: "WithFaults", wrap: func(s Service) Service { return WithFaults(s, FaultConfig{Seed: 1}) }, perOp: true},
		{name: "WithRetry", wrap: func(s Service) Service { return WithRetry(s, RetryPolicy{Seed: 1}) }},
		{name: "Namespaced", wrap: func(s Service) Service { return Namespaced(s, "t0") }, rewrite: prefixed, refuseNS: true},
		{name: "stack", wrap: func(s Service) Service {
			return WithMetrics(WithRetry(WithFaults(WithLatency(WithRoundCounter(s), time.Nanosecond),
				FaultConfig{Seed: 1}), RetryPolicy{Seed: 1}), telemetry.New())
		}, perOp: true},
	} {
		t.Run(w.name, func(t *testing.T) {
			for _, tc := range conformanceCalls() {
				label := tc.in.Op.String()
				if tc.in.DB != "" {
					label += "NS"
				}
				backend := &recordingBackend{}
				before := fmt.Sprintf("%+v", tc.in)
				got, err := tc.run(w.wrap(backend))
				if after := fmt.Sprintf("%+v", tc.in); after != before {
					t.Errorf("%s: caller's inputs changed:\n got %s\nwant %s", label, after, before)
				}
				c := tc.in
				_ = Apply(w.wrap(&recordingBackend{}), &c)
				c.Len, c.Out, c.BatchOut, c.Stats = 0, nil, nil, Stats{}
				if !reflect.DeepEqual(c, tc.in) {
					t.Errorf("%s: Apply left the Call's inputs as %+v, want %+v", label, c, tc.in)
				}
				if w.refuseNS && tc.in.DB != "" {
					if err == nil || len(backend.got) != 0 {
						t.Errorf("%s: err %v after %d backend calls; want an error and none", label, err, len(backend.got))
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want := []Call{tc.in}
				if w.perOp && tc.in.Op == OpBatch {
					want = splitOps(tc.in)
				}
				if w.rewrite != nil {
					for i := range want {
						want[i] = w.rewrite(want[i])
					}
				}
				if !reflect.DeepEqual(backend.got, want) {
					t.Errorf("%s: backend received\n %+v\nwant\n %+v", label, backend.got, want)
				}
				if res := wantResult(tc.in); res != nil && !reflect.DeepEqual(got, res) {
					t.Errorf("%s: returned %+v, want %+v", label, got, res)
				}
			}
		})
	}
}

// TestRoundCounterForwardsNamespaces: a namespaced Checkpoint or Stats
// passes through the round counter like every other decorator.
func TestRoundCounterForwardsNamespaces(t *testing.T) {
	srv := NewServer()
	rc := WithRoundCounter(srv)
	if err := CheckpointIn(rc, "db", 3); err != nil {
		t.Fatal(err)
	}
	st, err := StatsIn(rc, "db")
	if err != nil || st.Epoch != 3 {
		t.Fatalf("StatsIn = %+v, %v; want epoch 3", st, err)
	}
	if rc.Rounds() != 2 {
		t.Errorf("Rounds = %d, want 2", rc.Rounds())
	}
}

package store

import "sync/atomic"

// Batching lets concurrent protocol workers coalesce independent cell
// operations into one logical round trip. A batch is a flat list of
// ReadCells/WriteCells operations; the semantics are exactly "apply the ops
// in order", so a batch is observationally identical to issuing its ops one
// by one — only the number of wire round trips (and injected latency
// delays) changes.
//
// Leakage note: the server sees the same per-cell accesses either way — the
// in-memory Server records one trace event per cell index regardless of
// call granularity — so batching changes timing, never the access trace.

// BatchOp is one cell operation inside a batch. Write selects WriteCells
// (Cts carries the ciphertexts); otherwise the op is a ReadCells.
type BatchOp struct {
	Write bool
	Name  string
	Idx   []int64
	Cts   [][]byte // writes only
}

// Batcher is the optional extension a Service implements when it can apply
// a whole batch in one round trip. Results are per-op: reads return their
// ciphertexts, writes return nil. Every Func is a Batcher; one that cannot
// keep its semantics across a fused call (the per-op fault injector) splits
// the batch itself, and DoBatch degrades to per-op calls through a Service
// that is not a Batcher.
type Batcher interface {
	Batch(ops []BatchOp) ([][][]byte, error)
}

// DoBatch applies ops through svc, fused into one call when svc implements
// Batcher and op by op otherwise. The first error aborts the batch;
// previously applied writes remain applied (same as serial issuance).
func DoBatch(svc Service, ops []BatchOp) ([][][]byte, error) {
	if b, ok := svc.(Batcher); ok {
		return b.Batch(ops)
	}
	return batchFallback(svc, ops)
}

// batchFallback applies ops one by one through svc.
func batchFallback(svc Service, ops []BatchOp) ([][][]byte, error) {
	out := make([][][]byte, len(ops))
	for i, op := range ops {
		if op.Write {
			if err := svc.WriteCells(op.Name, op.Idx, op.Cts); err != nil {
				return nil, err
			}
			continue
		}
		cts, err := svc.ReadCells(op.Name, op.Idx)
		if err != nil {
			return nil, err
		}
		out[i] = cts
	}
	return out, nil
}

// Batch implements Batcher for the in-memory server: ops apply in order
// under the server's own per-call locking. Trace events are recorded per
// cell index by ReadCells/WriteCells exactly as for unbatched calls.
func (s *Server) Batch(ops []BatchOp) ([][][]byte, error) {
	return batchFallback(s, ops)
}

// RoundCounter counts logical storage round trips: every Service call is
// one round, and a Batch is one round regardless of how many ops it
// carries. The scaling benchmark uses it to report how many rounds (and
// hence how much injected RTT) a discovery run pays.
type RoundCounter struct {
	Func
	rounds atomic.Int64
}

// WithRoundCounter wraps svc with a round counter; safe for concurrent
// workers. When svc is not a Batcher each op of a batch is its own round
// and is counted as such — the counter never reports fewer rounds than svc
// was asked for.
func WithRoundCounter(svc Service) *RoundCounter {
	c := &RoundCounter{}
	_, fused := svc.(Batcher)
	c.Func = func(call *Call) (err error) {
		if call.Op == OpBatch && !fused {
			call.BatchOut, err = batchFallback(c, call.Ops)
			return err
		}
		c.rounds.Add(1)
		return Apply(svc, call)
	}
	return c
}

// Rounds returns the number of logical round trips counted so far.
func (c *RoundCounter) Rounds() int64 { return c.rounds.Load() }

var _ Batcher = (*Server)(nil)

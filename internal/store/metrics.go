package store

import (
	"time"

	"github.com/oblivfd/oblivfd/internal/telemetry"
)

// WithMetrics wraps a Service so every call is timed into a per-operation
// latency histogram (oblivfd_store_op_seconds{op=...}), errors are counted
// (oblivfd_store_op_errors_total{op=...}), and ciphertext payload volume
// is accumulated (oblivfd_store_bytes_{read,written}_total); a Batch is
// timed as one operation and its ops' bytes are attributed to the totals.
// A nil registry returns svc unchanged — the zero-telemetry path has no
// wrapper at all.
//
// Leakage note: everything observed here (operation kind, latency, payload
// size) is already visible to the server and the persistent adversary; see
// DESIGN.md §9.
func WithMetrics(svc Service, reg *telemetry.Registry) Service {
	if reg == nil {
		return svc
	}
	// Handles are created up front so the hot path never touches the
	// registry map.
	var lat [NumOps]*telemetry.Histogram
	var errs [NumOps]*telemetry.Counter
	for op := Op(0); op < NumOps; op++ {
		lat[op] = reg.Histogram("oblivfd_store_op_seconds", "op", op.String())
		errs[op] = reg.Counter("oblivfd_store_op_errors_total", "op", op.String())
	}
	read := reg.Counter("oblivfd_store_bytes_read_total")
	written := reg.Counter("oblivfd_store_bytes_written_total")
	return Func(func(c *Call) error {
		t0 := time.Now()
		err := Apply(svc, c)
		if c.Op >= NumOps {
			return err
		}
		lat[c.Op].ObserveSince(t0)
		if err != nil {
			errs[c.Op].Inc()
			return err
		}
		up, down := c.payload()
		written.Add(up)
		read.Add(down)
		return nil
	})
}

// payload returns the ciphertext bytes a successful c moved up (written)
// and down (read).
func (c *Call) payload() (up, down int64) {
	switch c.Op {
	case OpWriteCells, OpWritePath, OpWriteBuckets:
		up = payloadBytes(c.Cts)
	case OpReadCells, OpReadPath:
		down = payloadBytes(c.Out)
	case OpBatch:
		for i, op := range c.Ops {
			if op.Write {
				up += payloadBytes(op.Cts)
			} else if i < len(c.BatchOut) {
				down += payloadBytes(c.BatchOut[i])
			}
		}
	}
	return up, down
}

func payloadBytes(cts [][]byte) int64 {
	var n int64
	for _, ct := range cts {
		n += int64(len(ct))
	}
	return n
}

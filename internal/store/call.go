package store

import (
	"errors"
	"fmt"
)

// Op names one Service operation. Its values are the transport's wire
// kinds for the same calls, so a Call crosses the wire without translation.
type Op uint8

// The Service operations, in wire-kind order.
const (
	OpCreateArray Op = iota
	OpArrayLen
	OpReadCells
	OpWriteCells
	OpCreateTree
	OpReadPath
	OpWritePath
	OpWriteBuckets
	OpDelete
	OpReveal
	OpStats
	OpCheckpoint
	OpBatch
	NumOps // the number of operations; not itself an Op
)

var opNames = [NumOps]string{
	"CreateArray", "ArrayLen", "ReadCells", "WriteCells",
	"CreateTree", "ReadPath", "WritePath", "WriteBuckets",
	"Delete", "Reveal", "Stats", "Checkpoint", "Batch",
}

// String returns the Service method name, as used in metric labels and
// error messages.
func (o Op) String() string {
	if o < NumOps {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// appliedErr is the create/delete reconciliation rule, the one place it is
// written. Every other operation is idempotent: a write stores exactly the
// ciphertexts it carries, so applying it twice leaves the state applying it
// once does. A create or delete is not, but when a call is re-sent after a
// failure that may have hidden its success (a lost acknowledgement, a
// fail-after fault, a failover), the resend's "already exists" (creates) or
// "unknown object" (deletes) can only mean the earlier attempt applied. The
// inference holds because each database namespace has a single writing
// client: the transport binds every session to one database and prefixes
// every name it sends (see Namespaced), so no other tenant can create or
// delete the objects this client names.
func (o Op) appliedErr() error {
	switch o {
	case OpCreateArray, OpCreateTree:
		return ErrObjectExists
	case OpDelete:
		return ErrUnknownObject
	}
	return nil
}

// idempotent reports whether applying o twice is the same as applying it
// once (everything but creates and deletes).
func (o Op) idempotent() bool { return o.appliedErr() == nil }

// Applied reports whether err, answering a re-sent o, proves that an
// earlier attempt of the same call applied, so the call succeeded.
func (o Op) Applied(err error) bool {
	a := o.appliedErr()
	return a != nil && errors.Is(err, a)
}

// Call is one Service operation as a value: the inputs its Op uses and the
// results it returns. Layers never change the inputs a caller passed (a
// layer that rewrites one, such as Namespaced, restores it before
// returning), so a retried or failed-over Call re-applies exactly the same
// request.
type Call struct {
	Op Op

	// Inputs; each Op reads only its own.
	Name   string    // object name; Reveal's tag
	DB     string    // Checkpoint/Stats: the database namespace ("" is the root)
	N      int       // CreateArray: cells; WriteBuckets: first bucket
	Levels int       // CreateTree
	Slots  int       // CreateTree: slots per bucket
	Leaf   uint32    // ReadPath, WritePath
	Value  int64     // Reveal: the value; Checkpoint: the epoch
	Idx    []int64   // ReadCells, WriteCells
	Cts    [][]byte  // WriteCells, WritePath, WriteBuckets
	Ops    []BatchOp // Batch

	// Results.
	Len      int        // ArrayLen
	Out      [][]byte   // ReadCells, ReadPath
	BatchOut [][][]byte // Batch: one entry per op, nil for writes
	Stats    Stats      // Stats
}

// doer is what Apply looks for to pass a Call through unchanged: Func and
// every struct that embeds one.
type doer interface{ Do(*Call) error }

// Apply runs c against svc and stores its results in c. A Func (or a type
// embedding one) receives c itself, so a stack of Funcs shares the one Call
// its outermost method allocated. Any other Service is called through its
// methods: a Batch falls back to op-by-op calls when svc is not a Batcher,
// and a namespaced Checkpoint/Stats (DB != "") needs a NamespaceService —
// without one it is an error, never a silent act on another namespace.
func Apply(svc Service, c *Call) error {
	if d, ok := svc.(doer); ok {
		return d.Do(c)
	}
	var err error
	switch c.Op {
	case OpCreateArray:
		return svc.CreateArray(c.Name, c.N)
	case OpArrayLen:
		c.Len, err = svc.ArrayLen(c.Name)
	case OpReadCells:
		c.Out, err = svc.ReadCells(c.Name, c.Idx)
	case OpWriteCells:
		return svc.WriteCells(c.Name, c.Idx, c.Cts)
	case OpCreateTree:
		return svc.CreateTree(c.Name, c.Levels, c.Slots)
	case OpReadPath:
		c.Out, err = svc.ReadPath(c.Name, c.Leaf)
	case OpWritePath:
		return svc.WritePath(c.Name, c.Leaf, c.Cts)
	case OpWriteBuckets:
		return svc.WriteBuckets(c.Name, c.N, c.Cts)
	case OpDelete:
		return svc.Delete(c.Name)
	case OpReveal:
		return svc.Reveal(c.Name, c.Value)
	case OpStats:
		if c.DB == "" {
			c.Stats, err = svc.Stats()
		} else if ns, ok := svc.(NamespaceService); ok {
			c.Stats, err = ns.StatsNS(c.DB)
		} else {
			err = fmt.Errorf("store: backend %T cannot report namespace %q", svc, c.DB)
		}
	case OpCheckpoint:
		if c.DB == "" {
			return svc.Checkpoint(c.Value)
		}
		if ns, ok := svc.(NamespaceService); ok {
			return ns.CheckpointNS(c.DB, c.Value)
		}
		return fmt.Errorf("store: backend %T cannot checkpoint namespace %q", svc, c.DB)
	case OpBatch:
		c.BatchOut, err = DoBatch(svc, c.Ops)
	default:
		return fmt.Errorf("store: unknown operation %v", c.Op)
	}
	return err
}

// Func is a Service written as one function of a Call. Its methods build
// the Call and run it; Apply hands an existing Call straight to it. A
// decorator is a Func that does its work around Apply(inner, c); one that
// exposes counters is a struct embedding a Func.
type Func func(*Call) error

var (
	_ Service          = Func(nil)
	_ Batcher          = Func(nil)
	_ NamespaceService = Func(nil)
)

// Do runs c.
func (f Func) Do(c *Call) error { return f(c) }

// CreateArray implements Service.
func (f Func) CreateArray(name string, n int) error {
	return f(&Call{Op: OpCreateArray, Name: name, N: n})
}

// ArrayLen implements Service.
func (f Func) ArrayLen(name string) (int, error) {
	c := &Call{Op: OpArrayLen, Name: name}
	if err := f(c); err != nil {
		return 0, err
	}
	return c.Len, nil
}

// ReadCells implements Service.
func (f Func) ReadCells(name string, idx []int64) ([][]byte, error) {
	c := &Call{Op: OpReadCells, Name: name, Idx: idx}
	if err := f(c); err != nil {
		return nil, err
	}
	return c.Out, nil
}

// WriteCells implements Service.
func (f Func) WriteCells(name string, idx []int64, cts [][]byte) error {
	return f(&Call{Op: OpWriteCells, Name: name, Idx: idx, Cts: cts})
}

// CreateTree implements Service.
func (f Func) CreateTree(name string, levels, slotsPerBucket int) error {
	return f(&Call{Op: OpCreateTree, Name: name, Levels: levels, Slots: slotsPerBucket})
}

// ReadPath implements Service.
func (f Func) ReadPath(name string, leaf uint32) ([][]byte, error) {
	c := &Call{Op: OpReadPath, Name: name, Leaf: leaf}
	if err := f(c); err != nil {
		return nil, err
	}
	return c.Out, nil
}

// WritePath implements Service.
func (f Func) WritePath(name string, leaf uint32, slots [][]byte) error {
	return f(&Call{Op: OpWritePath, Name: name, Leaf: leaf, Cts: slots})
}

// WriteBuckets implements Service.
func (f Func) WriteBuckets(name string, bucketStart int, slots [][]byte) error {
	return f(&Call{Op: OpWriteBuckets, Name: name, N: bucketStart, Cts: slots})
}

// Delete implements Service.
func (f Func) Delete(name string) error { return f(&Call{Op: OpDelete, Name: name}) }

// Reveal implements Service.
func (f Func) Reveal(tag string, value int64) error {
	return f(&Call{Op: OpReveal, Name: tag, Value: value})
}

// Checkpoint implements Service.
func (f Func) Checkpoint(epoch int64) error { return f.CheckpointNS("", epoch) }

// Stats implements Service.
func (f Func) Stats() (Stats, error) { return f.StatsNS("") }

// CheckpointNS implements NamespaceService.
func (f Func) CheckpointNS(db string, epoch int64) error {
	return f(&Call{Op: OpCheckpoint, DB: db, Value: epoch})
}

// StatsNS implements NamespaceService.
func (f Func) StatsNS(db string) (Stats, error) {
	c := &Call{Op: OpStats, DB: db}
	if err := f(c); err != nil {
		return Stats{}, err
	}
	return c.Stats, nil
}

// Batch implements Batcher.
func (f Func) Batch(ops []BatchOp) ([][][]byte, error) {
	c := &Call{Op: OpBatch, Ops: ops}
	if err := f(c); err != nil {
		return nil, err
	}
	return c.BatchOut, nil
}

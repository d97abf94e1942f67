package main

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/oblivfd/oblivfd/internal/store"
)

// The benchmark observes the program only at its public seams: a
// store.Service decorator on each side of the transport, a wrapping
// net.Listener, a store.FS wrapper and the benchmark's own
// store.ReplicaConn. Counters are always on (they feed end-to-end metrics
// such as rounds and comm_bytes); spans are recorded only when a recorder
// is attached, which is what the traced run adds.

// Service methods as seen at a seam. A fused Batch is one call.
const (
	mCreateArray = iota
	mArrayLen
	mReadCells
	mWriteCells
	mCreateTree
	mReadPath
	mWritePath
	mWriteBuckets
	mDelete
	mReveal
	mCheckpoint
	mStats
	mBatch
	numMethods
)

var methodNames = [numMethods]string{
	"CreateArray", "ArrayLen", "ReadCells", "WriteCells", "CreateTree",
	"ReadPath", "WritePath", "WriteBuckets", "Delete", "Reveal",
	"Checkpoint", "Stats", "Batch",
}

// span is one interval recorded by a benchmark wrapper. Times are
// nanoseconds since the recorder was created.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	key    callKey // pairs a client-seam call with its server-seam call
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing.
type recorder struct {
	base  time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.base))
}

func (r *recorder) add(layer, name string, key callKey, start int64) int64 {
	if r == nil {
		return 0
	}
	sp := span{ID: r.ids.Add(1), Layer: layer, Name: name, Start: start, End: r.now(), key: key}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
	return sp.ID
}

// since returns the spans recorded from index i on.
func (r *recorder) since(i int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans[i:]...)
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// seamCounters are the work counts of one Service seam.
type seamCounters struct {
	calls                 [numMethods]atomic.Int64
	cellsUp, cellsDown    atomic.Int64 // ciphertexts written / read
	bytesUp, bytesDown    atomic.Int64 // their bytes
	pathReads, pathWrites atomic.Int64
	pathBytes             atomic.Int64
	arrayCells            atomic.Int64 // cells moved by ReadCells/WriteCells/Batch
}

// seamCounts is a plain copy of seamCounters, for windows and diffs.
type seamCounts struct {
	Calls                 [numMethods]int64
	CellsUp, CellsDown    int64
	BytesUp, BytesDown    int64
	PathReads, PathWrites int64
	PathBytes, ArrayCells int64
}

func (c *seamCounters) snapshot() seamCounts {
	var s seamCounts
	for i := range c.calls {
		s.Calls[i] = c.calls[i].Load()
	}
	s.CellsUp, s.CellsDown = c.cellsUp.Load(), c.cellsDown.Load()
	s.BytesUp, s.BytesDown = c.bytesUp.Load(), c.bytesDown.Load()
	s.PathReads, s.PathWrites = c.pathReads.Load(), c.pathWrites.Load()
	s.PathBytes, s.ArrayCells = c.pathBytes.Load(), c.arrayCells.Load()
	return s
}

func (s seamCounts) minus(o seamCounts) seamCounts {
	for i := range s.Calls {
		s.Calls[i] -= o.Calls[i]
	}
	s.CellsUp -= o.CellsUp
	s.CellsDown -= o.CellsDown
	s.BytesUp -= o.BytesUp
	s.BytesDown -= o.BytesDown
	s.PathReads -= o.PathReads
	s.PathWrites -= o.PathWrites
	s.PathBytes -= o.PathBytes
	s.ArrayCells -= o.ArrayCells
	return s
}

func (s seamCounts) rounds() int64 {
	var n int64
	for _, c := range s.Calls {
		n += c
	}
	return n
}

func sizeOf(cts [][]byte) (n int64) {
	for _, ct := range cts {
		n += int64(len(ct))
	}
	return n
}

// seam is a store.Service decorator that counts every call and, with a
// recorder, records one span per call under the given layer name.
type seam struct {
	inner store.Service
	layer string
	n     *seamCounters
	rec   *recorder
}

var (
	_ store.Service = (*seam)(nil)
	_ store.Batcher = (*seam)(nil)
)

func newSeam(inner store.Service, layer string, rec *recorder) *seam {
	return &seam{inner: inner, layer: layer, n: new(seamCounters), rec: rec}
}

func (s *seam) start() int64 { return s.rec.now() }

// done counts one call and, when traced, records its span. key identifies
// the request so the client-seam and server-seam spans of one call pair up.
func (s *seam) done(m int, start int64, key callKey) {
	s.n.calls[m].Add(1)
	if s.rec == nil {
		return
	}
	s.rec.add(s.layer, methodNames[m], key, start)
}

func (s *seam) up(cts [][]byte) {
	s.n.cellsUp.Add(int64(len(cts)))
	s.n.bytesUp.Add(sizeOf(cts))
}

func (s *seam) down(cts [][]byte) {
	s.n.cellsDown.Add(int64(len(cts)))
	s.n.bytesDown.Add(sizeOf(cts))
}

// callKey identifies a request well enough to pair its client-seam span
// with its server-seam span: method, object name, and a count plus the
// first and last index (or the leaf, tag value or epoch).
type callKey struct {
	m         int
	name      string
	n, lo, hi int64
}

func idxKey(m int, name string, idx []int64) callKey {
	if len(idx) == 0 {
		return callKey{m: m, name: name}
	}
	return callKey{m, name, int64(len(idx)), idx[0], idx[len(idx)-1]}
}

func nameKey(m int, name string, v int64) callKey { return callKey{m: m, name: name, lo: v} }

func (s *seam) CreateArray(name string, n int) error {
	t := s.start()
	defer s.done(mCreateArray, t, nameKey(mCreateArray, name, int64(n)))
	return s.inner.CreateArray(name, n)
}

func (s *seam) ArrayLen(name string) (int, error) {
	t := s.start()
	defer s.done(mArrayLen, t, nameKey(mArrayLen, name, 0))
	return s.inner.ArrayLen(name)
}

func (s *seam) ReadCells(name string, idx []int64) ([][]byte, error) {
	t := s.start()
	defer s.done(mReadCells, t, idxKey(mReadCells, name, idx))
	cts, err := s.inner.ReadCells(name, idx)
	s.down(cts)
	s.n.arrayCells.Add(int64(len(cts)))
	return cts, err
}

func (s *seam) WriteCells(name string, idx []int64, cts [][]byte) error {
	t := s.start()
	defer s.done(mWriteCells, t, idxKey(mWriteCells, name, idx))
	s.up(cts)
	s.n.arrayCells.Add(int64(len(cts)))
	return s.inner.WriteCells(name, idx, cts)
}

func (s *seam) CreateTree(name string, levels, slotsPerBucket int) error {
	t := s.start()
	defer s.done(mCreateTree, t, nameKey(mCreateTree, name, int64(levels)))
	return s.inner.CreateTree(name, levels, slotsPerBucket)
}

func (s *seam) ReadPath(name string, leaf uint32) ([][]byte, error) {
	t := s.start()
	defer s.done(mReadPath, t, nameKey(mReadPath, name, int64(leaf)))
	cts, err := s.inner.ReadPath(name, leaf)
	s.down(cts)
	s.n.pathReads.Add(1)
	s.n.pathBytes.Add(sizeOf(cts))
	return cts, err
}

func (s *seam) WritePath(name string, leaf uint32, slots [][]byte) error {
	t := s.start()
	defer s.done(mWritePath, t, nameKey(mWritePath, name, int64(leaf)))
	s.up(slots)
	s.n.pathWrites.Add(1)
	s.n.pathBytes.Add(sizeOf(slots))
	return s.inner.WritePath(name, leaf, slots)
}

func (s *seam) WriteBuckets(name string, bucketStart int, slots [][]byte) error {
	t := s.start()
	defer s.done(mWriteBuckets, t, nameKey(mWriteBuckets, name, int64(bucketStart)))
	s.up(slots)
	return s.inner.WriteBuckets(name, bucketStart, slots)
}

func (s *seam) Delete(name string) error {
	t := s.start()
	defer s.done(mDelete, t, nameKey(mDelete, name, 0))
	return s.inner.Delete(name)
}

func (s *seam) Reveal(tag string, value int64) error {
	t := s.start()
	defer s.done(mReveal, t, nameKey(mReveal, tag, value))
	return s.inner.Reveal(tag, value)
}

func (s *seam) Checkpoint(epoch int64) error {
	t := s.start()
	defer s.done(mCheckpoint, t, nameKey(mCheckpoint, "", epoch))
	return s.inner.Checkpoint(epoch)
}

func (s *seam) Stats() (store.Stats, error) {
	t := s.start()
	defer s.done(mStats, t, nameKey(mStats, "", 0))
	return s.inner.Stats()
}

func (s *seam) Batch(ops []store.BatchOp) ([][][]byte, error) {
	t := s.start()
	key := callKey{m: mBatch}
	if len(ops) > 0 {
		key = idxKey(mBatch, ops[0].Name, ops[0].Idx)
		key.n = int64(len(ops))
	}
	defer s.done(mBatch, t, key)
	for _, op := range ops {
		if op.Write {
			s.up(op.Cts)
			s.n.arrayCells.Add(int64(len(op.Cts)))
		}
	}
	res, err := store.DoBatch(s.inner, ops)
	for _, cts := range res {
		s.down(cts)
		s.n.arrayCells.Add(int64(len(cts)))
	}
	return res, err
}

// countingListener counts the bytes and writes of every accepted
// connection: the transport's wire cost, independent of what the codec
// puts in it.
type countingListener struct {
	net.Listener
	bytes  atomic.Int64
	writes atomic.Int64 // server-side writes: one per response frame
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.bytes.Add(int64(n))
	c.l.writes.Add(1)
	return n, err
}

// diskCounters are the durable layer's costs as seen through store.FS.
type diskCounters struct {
	walAppends, walBytes atomic.Int64
	snapBytes            atomic.Int64
	fsyncs               atomic.Int64
	writeNS, fsyncNS     atomic.Int64
}

type diskCounts struct {
	WALAppends, WALBytes, SnapBytes, Fsyncs, WriteNS, FsyncNS int64
}

func (c *diskCounters) snapshot() diskCounts {
	return diskCounts{c.walAppends.Load(), c.walBytes.Load(), c.snapBytes.Load(),
		c.fsyncs.Load(), c.writeNS.Load(), c.fsyncNS.Load()}
}

func (d diskCounts) minus(o diskCounts) diskCounts {
	return diskCounts{d.WALAppends - o.WALAppends, d.WALBytes - o.WALBytes, d.SnapBytes - o.SnapBytes,
		d.Fsyncs - o.Fsyncs, d.WriteNS - o.WriteNS, d.FsyncNS - o.FsyncNS}
}

// diskFS is the store.FS wrapper handed to DurableOptions.FS. It
// classifies writes by file: the WAL ("wal.log") and snapshot temp files
// ("snap-*.tmp", renamed into place once synced).
type diskFS struct {
	store.FS
	n   *diskCounters
	rec *recorder
}

func (f *diskFS) wrap(file store.File, err error) (store.File, error) {
	if err != nil {
		return nil, err
	}
	base := filepath.Base(file.Name())
	kind := "other"
	switch {
	case base == "wal.log":
		kind = "wal"
	case strings.HasPrefix(base, "snap-"):
		kind = "snapshot"
	}
	return &diskFile{File: file, fs: f, kind: kind, span: "write:" + kind}, nil
}

func (f *diskFS) Open(name string) (store.File, error) { return f.wrap(f.FS.Open(name)) }
func (f *diskFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	return f.wrap(f.FS.OpenFile(name, flag, perm))
}
func (f *diskFS) CreateTemp(dir, pattern string) (store.File, error) {
	return f.wrap(f.FS.CreateTemp(dir, pattern))
}

type diskFile struct {
	store.File
	fs   *diskFS
	kind string
	span string // span name of a write
}

func (d *diskFile) Write(p []byte) (int, error) {
	t0, start := time.Now(), d.fs.rec.now()
	n, err := d.File.Write(p)
	d.fs.n.writeNS.Add(int64(time.Since(t0)))
	switch d.kind {
	case "wal":
		d.fs.n.walAppends.Add(1)
		d.fs.n.walBytes.Add(int64(n))
	case "snapshot":
		d.fs.n.snapBytes.Add(int64(n))
	}
	d.fs.rec.add("wal", d.span, callKey{}, start)
	return n, err
}

// Sync is counted and timed but records no span: with SyncEvery 1 there is
// one per write, and the write span already marks the append.
func (d *diskFile) Sync() error {
	t0 := time.Now()
	err := d.File.Sync()
	d.fs.n.fsyncNS.Add(int64(time.Since(t0)))
	d.fs.n.fsyncs.Add(1)
	return err
}

// replCounters are the replication stream's costs.
type replCounters struct {
	ships, frames, bytes, shipNS atomic.Int64
}

type replCounts struct{ Ships, Frames, Bytes, ShipNS int64 }

func (c *replCounters) snapshot() replCounts {
	return replCounts{c.ships.Load(), c.frames.Load(), c.bytes.Load(), c.shipNS.Load()}
}

func (r replCounts) minus(o replCounts) replCounts {
	return replCounts{r.Ships - o.Ships, r.Frames - o.Frames, r.Bytes - o.Bytes, r.ShipNS - o.ShipNS}
}

// replicaLink is the primary's in-process connection to its replica: the
// replica applies each shipment before Replicate returns, so shipping is
// synchronous and every acknowledged write is on both nodes.
type replicaLink struct {
	replica *store.ReplicatedServer
	n       *replCounters
	rec     *recorder
}

func (l *replicaLink) Replicate(fence, seq int64, frames [][]byte) error {
	t0, start := time.Now(), l.rec.now()
	_, err := l.replica.ApplyReplicated(fence, seq, frames)
	l.n.shipNS.Add(int64(time.Since(t0)))
	l.n.ships.Add(1)
	l.n.frames.Add(int64(len(frames)))
	l.n.bytes.Add(sizeOf(frames))
	l.rec.add("repl", "ship", callKey{}, start)
	return err
}

func (l *replicaLink) SyncSnapshot(fence, seq int64, snap []byte) error {
	t0, start := time.Now(), l.rec.now()
	err := l.replica.ApplySync(fence, seq, snap)
	l.n.shipNS.Add(int64(time.Since(t0)))
	l.n.ships.Add(1)
	l.n.bytes.Add(int64(len(snap)))
	l.rec.add("repl", "resync", callKey{}, start)
	return err
}

func (l *replicaLink) Close() error { return nil }

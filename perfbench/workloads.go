package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"github.com/oblivfd/oblivfd/internal/dataset"
	"github.com/oblivfd/oblivfd/internal/relation"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/securefd"
)

// workload is one deployment of the public API, driven by a single
// closed-loop client: each call starts only when the previous one returned.
type workload struct {
	name     string
	why      string
	protocol securefd.Protocol
	rows     int  // Adult rows per dataset
	tcp      bool // loopback TCP to an in-process transport.Server
	durable  bool // durable primary shipping to one durable replica
	updates  int  // closed-loop Insert/Delete/Update calls after Discover
}

const (
	maxLHS    = 2
	setupReps = 8
	// datasets is the number of distinct inputs per run; counts are the
	// median over them, so a run covers more than one dataset's shape.
	datasets = 5
	workers  = 2 // == nproc on the reference machine; also the TCP pool size
)

var workloads = []workload{
	{
		name:     "sort-tcp",
		why:      "Sort over loopback TCP: large batched frames; obsort, crypto and transport heavy; no oram, wal or repl work",
		protocol: securefd.ProtocolSort, rows: 128, tcp: true,
	},
	{
		name:     "ororam-durable",
		why:      "Or-ORAM in-process on a durable primary shipping synchronously to a durable replica: wal and repl heavy, no transport",
		protocol: securefd.ProtocolORAM, rows: 64, durable: true,
	},
	{
		name:     "exoram-dynamic-tcp",
		why:      "Ex-ORAM over loopback TCP, then a closed-loop Insert/Delete/Update stream and Revalidate: small ReadPath/WritePath frame pairs",
		protocol: securefd.ProtocolDynamicORAM, rows: 64, tcp: true, updates: 24,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// input is one seeded dataset with its oracle answer and, for dynamic
// workloads, its update stream.
type input struct {
	index int
	rel   *relation.Relation
	want  []relation.FD
	ops   []updateOp
}

type opKind int

const (
	opInsert opKind = iota
	opDelete
	opUpdate
)

var opNames = [...]string{"insert", "delete", "update"}

// updateOp is one call of the update stream. pick selects the live record
// (by position in the mirror's live-id list, modulo its length).
type updateOp struct {
	kind opKind
	pick int
	row  relation.Row
}

// makeInput derives dataset i of a run from the run's seed.
func makeInput(w workload, seed int64, i int) *input {
	dseed := seed*1000 + int64(i)
	in := &input{index: i, rel: dataset.Adult(w.rows, dseed)}
	in.want = expectedFDs(in.rel, maxLHS)
	if w.updates > 0 {
		rng := rand.New(rand.NewSource(dseed))
		// Inserted rows come from a second Adult sample of the same seed.
		fresh := dataset.Adult(w.updates, dseed+500)
		for k := 0; k < w.updates; k++ {
			op := updateOp{kind: opKind(k % 3), pick: rng.Intn(1 << 20)}
			if op.kind != opDelete {
				op.row = fresh.Row(k)
			}
			in.ops = append(in.ops, op)
		}
		rng.Shuffle(len(in.ops), func(a, b int) { in.ops[a], in.ops[b] = in.ops[b], in.ops[a] })
	}
	return in
}

// headroom is the insert capacity the update stream needs: ids are never
// reused, so both inserts and updates consume one.
func (in *input) headroom() int {
	n := 0
	for _, op := range in.ops {
		if op.kind != opDelete {
			n++
		}
	}
	return n
}

// deployment is one freshly started system under test.
type deployment struct {
	client *seam // between the engine and its backend
	server *seam // between transport.Server and the backend (TCP only)
	lis    *countingListener
	disk   *diskCounters
	repl   *replCounters
	nodes  []*store.ReplicatedServer // primary, replica (durable only)
	stop   func() error
}

func deploy(w workload, rec *recorder) (*deployment, error) {
	dep := &deployment{disk: new(diskCounters), repl: new(replCounters)}
	switch {
	case w.tcp:
		dep.server = newSeam(store.NewServer(), "server", rec)
		srv := securefd.NewTCPServer(dep.server)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		dep.lis = &countingListener{Listener: l}
		served := make(chan error, 1)
		go func() { served <- srv.Serve(dep.lis) }()
		pool, err := securefd.DialTCPPool(l.Addr().String(), workers, securefd.DefaultClientConfig())
		if err != nil {
			srv.Shutdown(0)
			<-served
			return nil, err
		}
		dep.client = newSeam(pool, "client", rec)
		dep.stop = func() error {
			perr := pool.Close()
			srv.Shutdown(time.Second)
			if err := <-served; err != nil {
				return err
			}
			return perr
		}
	case w.durable:
		fsys := &diskFS{FS: newMemFS(), n: dep.disk, rec: rec}
		open := func(dir string, cfg store.ReplicationConfig) (*store.ReplicatedServer, error) {
			d, err := store.OpenDir(dir, store.DurableOptions{SyncEvery: 1, FS: fsys})
			if err != nil {
				return nil, err
			}
			r, err := store.Replicated(d, cfg)
			if err != nil {
				d.Close()
				return nil, err
			}
			return r, nil
		}
		replica, err := open("/replica", store.ReplicationConfig{Primary: false})
		if err != nil {
			return nil, err
		}
		link := &replicaLink{replica: replica, n: dep.repl, rec: rec}
		primary, err := open("/primary", store.ReplicationConfig{
			Primary: true, Peers: []string{"replica"}, RedialEvery: 1,
			Dial: func(string) (store.ReplicaConn, error) { return link, nil },
		})
		if err != nil {
			replica.Close()
			return nil, err
		}
		dep.nodes = []*store.ReplicatedServer{primary, replica}
		dep.client = newSeam(primary, "client", rec)
		dep.stop = func() error {
			perr := primary.Close()
			if err := replica.Close(); err != nil {
				return err
			}
			return perr
		}
	default:
		return nil, fmt.Errorf("workload %s has no deployment", w.name)
	}
	return dep, nil
}

// cycle is the outcome of one Outsource + Discover (+ update stream) run on
// a fresh deployment.
type cycle struct {
	input     int
	warmup    bool
	traced    bool
	setupS    []float64 // one per Outsource
	discoverS float64
	cpuS      float64
	allocs    int64
	clientMem int64 // after Discover
	memAfter  int64 // after the update stream
	attempted int
	failed    int
	problems  []string

	win        seamCounts // client seam, Discover window
	srv        seamCounts // server seam, Discover window
	wireBytes  int64
	wireWrites int64
	disk       diskCounts // Discover window
	repl       replCounts // Discover window
	// Whole-cycle durable accounting: bytes that reached the primary's and
	// the replica's disk (WAL + snapshots) and ciphertext bytes the client
	// wrote.
	diskTotal int64
	snapBytes int64
	userBytes int64

	updateMS []float64  // one latency per update call
	updateS  float64    // wall time of the update stream
	updWin   seamCounts // client seam, update stream and Revalidate

	comparisons int64 // oblivfd_sort_comparisons_total (traced)
	oramReads   int64 // oblivfd_oram_path_reads_total (traced)

	spans          []span // traced: everything recorded during Discover
	discoverSpanID int64
	profile        []byte // traced: CPU profile of Discover
}

func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func mallocs() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Mallocs)
}

// runCycle outsources in, discovers, checks the FD set against the oracle
// and, for dynamic workloads, runs the update stream and revalidation.
// With traced set, every seam records spans, the engine gets a telemetry
// registry and Discover runs under the CPU profiler.
func runCycle(w workload, in *input, traced bool) (_ *cycle, err error) {
	c := &cycle{input: in.index, traced: traced}
	var rec *recorder
	var reg *securefd.Registry
	if traced {
		rec = newRecorder()
		reg = securefd.NewRegistry()
	}
	dep, err := deploy(w, rec)
	if err != nil {
		return nil, fmt.Errorf("deploying %s: %w", w.name, err)
	}
	defer func() {
		if serr := dep.stop(); serr != nil && err == nil {
			err = fmt.Errorf("stopping %s: %w", w.name, serr)
		}
	}()

	opts := securefd.Options{
		Protocol: w.protocol, Workers: workers, MaxLHS: maxLHS,
		InsertHeadroom: in.headroom(), Telemetry: reg,
	}
	// Outsource several copies and keep the last: setup_s is the median of
	// all of them, since a single upload takes only milliseconds.
	var db *securefd.Database
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		d, err := securefd.Outsource(dep.client, in.rel, opts)
		if err != nil {
			return nil, fmt.Errorf("outsource: %w", err)
		}
		c.setupS = append(c.setupS, time.Since(t0).Seconds())
		if i < setupReps-1 {
			if err := d.Close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
			continue
		}
		db = d
	}

	// Discover window.
	runtime.GC()
	cli0, srv0 := dep.client.n.snapshot(), dep.server.counts()
	disk0, repl0 := dep.disk.snapshot(), dep.repl.snapshot()
	var wire0, writes0 int64
	if dep.lis != nil {
		wire0, writes0 = dep.lis.bytes.Load(), dep.lis.writes.Load()
	}
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	spanMark := 0
	if rec != nil {
		spanMark = rec.len()
	}
	a0, cpu0 := mallocs(), cpuTime()
	start := rec.now()
	t0 := time.Now()
	rep, err := db.Discover()
	c.discoverS = time.Since(t0).Seconds()
	c.cpuS = cpuTime() - cpu0
	c.allocs = mallocs() - a0
	if traced {
		c.discoverSpanID = rec.add("core", "discover", callKey{}, start)
		pprof.StopCPUProfile()
		c.profile = prof.Bytes()
		c.spans = rec.since(spanMark)
		c.comparisons = reg.Counter("oblivfd_sort_comparisons_total").Value()
		c.oramReads = reg.Counter("oblivfd_oram_path_reads_total").Value()
	}
	c.win = dep.client.n.snapshot().minus(cli0)
	c.srv = dep.server.counts().minus(srv0)
	c.disk = dep.disk.snapshot().minus(disk0)
	c.repl = dep.repl.snapshot().minus(repl0)
	if dep.lis != nil {
		c.wireBytes = dep.lis.bytes.Load() - wire0
		c.wireWrites = dep.lis.writes.Load() - writes0
	}
	c.attempted++
	if err != nil {
		c.fail("discover: %v", err)
		return c, nil
	}
	if d := diffFDs(rep.Minimal, in.want); d != "" {
		c.fail("discover on dataset %d: %s", in.index, d)
	}
	c.clientMem = int64(db.ClientMemoryBytes())
	c.memAfter = c.clientMem

	if len(in.ops) > 0 {
		before := dep.client.n.snapshot()
		c.updateStream(db, in, rep.Minimal)
		c.updWin = dep.client.n.snapshot().minus(before)
		c.memAfter = int64(db.ClientMemoryBytes())
	}

	if w.durable {
		// Graceful shutdown of both nodes writes their final snapshots.
		for _, node := range dep.nodes {
			if err := node.Snapshot(); err != nil {
				return nil, fmt.Errorf("snapshot: %w", err)
			}
		}
		all := dep.disk.snapshot()
		c.diskTotal = all.WALBytes + all.SnapBytes
		c.snapBytes = all.SnapBytes
		c.userBytes = dep.client.n.bytesUp.Load()
	}
	if err := db.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	return c, nil
}

func (c *cycle) fail(format string, args ...any) {
	c.failed++
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// updateStream issues the input's Insert/Delete/Update calls back to back,
// mirrors each on the plaintext copy, then revalidates the discovered FDs
// and checks every verdict against the mutated plaintext.
func (c *cycle) updateStream(db *securefd.Database, in *input, fds []relation.FD) {
	m := newMirror(in.rel)
	t0 := time.Now()
	for _, op := range in.ops {
		pos := op.pick % len(m.ids)
		c.attempted++
		start := time.Now()
		var id int
		var err error
		switch op.kind {
		case opInsert:
			id, err = db.Insert(op.row)
		case opDelete:
			err = db.Delete(m.ids[pos])
		case opUpdate:
			id, err = db.Update(m.ids[pos], op.row)
		}
		c.updateMS = append(c.updateMS, float64(time.Since(start))/float64(time.Millisecond))
		if err != nil {
			c.fail("%s: %v", opNames[op.kind], err)
			return
		}
		if op.kind != opInsert {
			m.remove(pos)
		}
		if op.kind != opDelete {
			m.add(id, op.row)
		}
	}
	c.updateS = time.Since(t0).Seconds()
	if db.NumRows() != len(m.ids) {
		c.fail("after updates: %d live rows, mirror has %d", db.NumRows(), len(m.ids))
	}

	c.attempted++
	rv, err := db.Revalidate(fds)
	if err != nil {
		c.fail("revalidate: %v", err)
		return
	}
	rel, err := m.relation()
	if err != nil {
		c.fail("mirror: %v", err)
		return
	}
	if wrong, detail := checkRevalidation(rel, fds, rv.Valid, rv.Invalidated); wrong > 0 {
		c.fail("revalidate on dataset %d: %d wrong verdicts (%s)", in.index, wrong, detail)
	}
}

// counts is nil-safe: an in-process deployment has no server seam.
func (s *seam) counts() seamCounts {
	if s == nil {
		return seamCounts{}
	}
	return s.n.snapshot()
}

package transport

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
)

// ErrInjectedDrop is the error a faulty connection reports when the chaos
// schedule severs it mid-call.
var ErrInjectedDrop = errors.New("transport: injected connection drop")

// FaultConfig parameterizes WithConnFaults.
type FaultConfig struct {
	// Seed fixes the drop schedule: the nth frame across the listener's
	// connections gets the same verdict on every run.
	Seed int64
	// DropRate is the probability that one frame — a request the server is
	// about to read or a response it is about to write — severs the
	// connection instead: the message is lost mid-flight, exactly the
	// failure a flaky network produces.
	DropRate float64
}

// FaultyListener wraps a net.Listener so accepted connections drop on a
// deterministic, seeded schedule. Pair it with a self-healing client (or
// store.WithRetry) in chaos tests: the server side keeps killing
// connections, the client side must keep recovering.
type FaultyListener struct {
	net.Listener
	cfg FaultConfig

	mu  sync.Mutex
	rng *rand.Rand

	drops atomic.Int64
}

// WithConnFaults wraps l with seeded mid-call connection drops.
func WithConnFaults(l net.Listener, cfg FaultConfig) *FaultyListener {
	return &FaultyListener{Listener: l, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Drops returns the number of connections severed so far.
func (l *FaultyListener) Drops() int64 { return l.drops.Load() }

// Accept wraps the accepted connection with the drop schedule. All
// connections share one schedule, so the drop sequence is a pure function
// of the seed and the global frame order. Rolls happen in frame
// coordinates (each connection parses the u32 length prefixes passing
// through it), never per Read/Write call: how the kernel happens to segment
// a frame must not change the schedule.
func (l *FaultyListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &faultyConn{Conn: conn, l: l}, nil
}

// roll draws one verdict from the shared schedule.
func (l *FaultyListener) roll() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rng.Float64() < l.cfg.DropRate
}

type faultyConn struct {
	net.Conn
	l       *FaultyListener
	dropped atomic.Bool
	in, out frameCursor // owned by the reading and the writing goroutine
}

// frameCursor tracks where a length-prefixed frame stream stands: inside a
// frame's 4-byte prefix (hdr[:hn] seen so far) or inside its body (left
// bytes to go). At a boundary both are zero.
type frameCursor struct {
	hdr  [4]byte
	hn   int
	left uint64
}

func (f *frameCursor) atBoundary() bool { return f.hn == 0 && f.left == 0 }

// span returns how many of want bytes may pass without crossing into the
// next frame.
func (f *frameCursor) span(want int) int {
	limit := f.left
	if limit == 0 {
		limit = uint64(len(f.hdr) - f.hn)
	}
	return int(min(limit, uint64(want)))
}

// advance consumes p, which must not cross a frame boundary (see span).
func (f *frameCursor) advance(p []byte) {
	if f.left == 0 {
		f.hn += copy(f.hdr[f.hn:], p)
		if f.hn == len(f.hdr) {
			f.hn, f.left = 0, uint64(binary.LittleEndian.Uint32(f.hdr[:]))
		}
		return
	}
	f.left -= uint64(len(p))
}

func (c *faultyConn) sever() error {
	if c.dropped.CompareAndSwap(false, true) {
		c.l.drops.Add(1)
		_ = c.Conn.Close()
	}
	return ErrInjectedDrop
}

// Read rolls once as each frame begins and never reads past the end of the
// current frame, so the roll count is exactly the frame count.
func (c *faultyConn) Read(p []byte) (int, error) {
	if c.dropped.Load() {
		return 0, ErrInjectedDrop
	}
	if c.in.atBoundary() && c.l.roll() {
		return 0, c.sever()
	}
	n, err := c.Conn.Read(p[:c.in.span(len(p))])
	c.in.advance(p[:n])
	return n, err
}

// Write rolls once for every frame that begins in p.
func (c *faultyConn) Write(p []byte) (int, error) {
	if c.dropped.Load() {
		return 0, ErrInjectedDrop
	}
	for rest := p; len(rest) > 0; {
		if c.out.atBoundary() && c.l.roll() {
			return 0, c.sever()
		}
		k := c.out.span(len(rest))
		c.out.advance(rest[:k])
		rest = rest[k:]
	}
	return c.Conn.Write(p)
}

package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/oblivfd/oblivfd/internal/otrace"
	"github.com/oblivfd/oblivfd/internal/store"
)

// Documented frame lengths (DESIGN.md §3), in terms of public sizes only:
// str(s) = 4+len(s), idx(v) = 4+8·len(v), cts(v) = 4 + Σ (4+len(vᵢ)).
func str(s string) int  { return 4 + len(s) }
func idx(v []int64) int { return 4 + 8*len(v) }
func cts(v [][]byte) int {
	n := 4
	for _, b := range v {
		n += 4 + len(b)
	}
	return n
}

// reqHeader is the length prefix, the kind byte and the trace context.
const reqHeader = 4 + 1 + otrace.WireSize

func sampleRequests() []struct {
	req     request
	formula int
} {
	name, token := "db/arr", "hunter2"
	ix := []int64{3, 1, 4}
	ct := [][]byte{{1, 2, 3}, nil, bytes.Repeat([]byte{0xEE}, 60)}
	ops := []store.BatchOp{
		{Write: true, Name: "a", Idx: ix, Cts: ct},
		{Name: "bb", Idx: ix[:1]},
	}
	opsLen := 4 + (1 + str("a") + idx(ix) + cts(ct)) + (1 + str("bb") + idx(ix[:1]))
	return []struct {
		req     request
		formula int
	}{
		{request{Kind: kindCreateArray, Call: store.Call{Name: name, N: 64}}, reqHeader + str(name) + 8},
		{request{Kind: kindArrayLen, Call: store.Call{Name: name}}, reqHeader + str(name)},
		{request{Kind: kindReadCells, Call: store.Call{Name: name, Idx: ix}}, reqHeader + str(name) + idx(ix)},
		{request{Kind: kindWriteCells, Call: store.Call{Name: name, Idx: ix, Cts: ct}}, reqHeader + str(name) + idx(ix) + cts(ct)},
		{request{Kind: kindCreateTree, Call: store.Call{Name: name, Levels: 5, Slots: 4}}, reqHeader + str(name) + 16},
		{request{Kind: kindReadPath, Call: store.Call{Name: name, Leaf: 9}}, reqHeader + str(name) + 4},
		{request{Kind: kindWritePath, Call: store.Call{Name: name, Leaf: 9, Cts: ct}}, reqHeader + str(name) + 4 + cts(ct)},
		{request{Kind: kindWriteBuckets, Call: store.Call{Name: name, N: 2, Cts: ct}}, reqHeader + str(name) + 8 + cts(ct)},
		{request{Kind: kindDelete, Call: store.Call{Name: name}}, reqHeader + str(name)},
		{request{Kind: kindReveal, Call: store.Call{Name: name, Value: -7}}, reqHeader + str(name) + 8},
		{request{Kind: kindStats}, reqHeader},
		{request{Kind: kindCheckpoint, Call: store.Call{Value: 3}}, reqHeader + 8},
		{request{Kind: kindBatch, Call: store.Call{Ops: ops}}, reqHeader + opsLen},
		{request{Kind: kindHello, Call: store.Call{Name: "db", Value: 2}, Token: token}, reqHeader + str("db") + 8 + str(token)},
		{request{Kind: kindReplicate, Call: store.Call{Value: 2, Cts: ct}, Seq: 11, Token: token}, reqHeader + 16 + cts(ct) + str(token)},
		{request{Kind: kindSync, Call: store.Call{Value: 2, Cts: ct[2:]}, Seq: 11, Token: token}, reqHeader + 16 + cts(ct[2:]) + str(token)},
		{request{Kind: kindPromote, Call: store.Call{Value: 3}, Token: token}, reqHeader + 8 + str(token)},
		{request{Kind: kindTraceDump, Call: store.Call{Name: "abc"}, Token: token}, reqHeader + str("abc") + str(token)},
		{request{Kind: kindRepair, Call: store.Call{Name: name, N: 1, Value: 2, Idx: ix}, Token: token}, reqHeader + str(name) + 16 + idx(ix) + str(token)},
	}
}

// TestRequestFrameLengthFormula: every request kind's frame length is its
// documented closed form, and the frame decodes back to the request.
func TestRequestFrameLengthFormula(t *testing.T) {
	samples := sampleRequests()
	if len(samples) != int(numKinds) {
		t.Fatalf("%d samples for %d kinds", len(samples), numKinds)
	}
	for _, s := range samples {
		req := s.req
		req.Ctx = otrace.SpanContext{Sampled: true, Trace: [16]byte{0xFF}, Span: [8]byte{1}}.Wire()
		frame := appendRequest(nil, &req)
		name := kindNames[req.Kind]
		if len(frame) != s.formula {
			t.Errorf("%s: frame is %d bytes, formula gives %d", name, len(frame), s.formula)
		}
		if got := binary.LittleEndian.Uint32(frame); int(got) != len(frame)-4 {
			t.Errorf("%s: length prefix %d, body %d", name, got, len(frame)-4)
		}
		got, err := decodeRequest(frame[4:])
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(*got, req) {
			t.Errorf("%s: round trip\n got %+v\nwant %+v", name, *got, req)
		}
	}
}

// TestResponseFrameLengthFormula: response lengths are closed forms too.
func TestResponseFrameLengthFormula(t *testing.T) {
	ct := [][]byte{{1}, bytes.Repeat([]byte{7}, 33)}
	full := response{Err: "boom", Code: codeIntegrity, N: 5, Cts: ct, Fence: 3, Seq: 9,
		Stats: store.Stats{Objects: 2, StoredBytes: 100, Epoch: 4, Primary: true, Fence: 3, Watermark: 9}}
	base := 4 + 1 + str(full.Err)
	for k := kind(0); k < numKinds; k++ {
		want := base
		var resp response
		resp.Err, resp.Code = full.Err, full.Code
		switch k {
		case kindArrayLen:
			want, resp.N = want+8, full.N
		case kindReadCells, kindReadPath, kindBatch, kindTraceDump:
			want, resp.Cts = want+cts(ct), full.Cts
		case kindStats:
			want, resp.Stats = want+89, full.Stats
		case kindHello:
			want, resp.Fence = want+8, full.Fence
		case kindReplicate, kindSync, kindPromote:
			want, resp.Fence, resp.Seq = want+16, full.Fence, full.Seq
		case kindRepair:
			want, resp.Fence, resp.Seq, resp.Cts = want+16+cts(ct), full.Fence, full.Seq, full.Cts
		}
		frame := appendResponse(nil, k, &resp)
		if len(frame) != want {
			t.Errorf("%s response is %d bytes, formula gives %d", kindNames[k], len(frame), want)
		}
		got, err := decodeResponse(frame[4:], k)
		if err != nil {
			t.Fatalf("%s: decode: %v", kindNames[k], err)
		}
		if !reflect.DeepEqual(*got, resp) {
			t.Errorf("%s: round trip\n got %+v\nwant %+v", kindNames[k], *got, resp)
		}
	}
}

// FuzzDecodeRequest: arbitrary request bodies never panic, and whatever
// decodes re-encodes to exactly the same bytes (the layout is canonical).
func FuzzDecodeRequest(f *testing.F) {
	for _, s := range sampleRequests() {
		req := s.req
		frame := appendRequest(nil, &req)
		f.Add(frame[4:])
		f.Add(frame[4 : len(frame)-1])
	}
	f.Add([]byte{byte(numKinds)})
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequest(body)
		if err != nil {
			return
		}
		if re := appendRequest(nil, req); !bytes.Equal(re[4:], body) {
			t.Fatalf("decoded request re-encodes differently")
		}
	})
}

// FuzzDecodeResponse: the same property for response bodies of every kind.
func FuzzDecodeResponse(f *testing.F) {
	resp := response{Err: "e", Code: codeFenced, N: 1, Cts: [][]byte{{1, 2}}, Fence: 2, Seq: 3,
		Stats: store.Stats{Objects: 1, Primary: true}}
	for k := kind(0); k < numKinds; k++ {
		frame := appendResponse(nil, k, &resp)
		f.Add(uint8(k), frame[4:])
	}
	f.Fuzz(func(t *testing.T, k uint8, body []byte) {
		kd := kind(k % uint8(numKinds))
		resp, err := decodeResponse(body, kd)
		if err != nil {
			return
		}
		if re := appendResponse(nil, kd, resp); !bytes.Equal(re[4:], body) {
			t.Fatalf("decoded %s response re-encodes differently", kindNames[kd])
		}
	})
}

// TestOversizedFrameClosedBeforeAllocating: a connection that declares a
// 2 GiB frame is closed without the server allocating anything of that
// size; on a token-protected server even a modest frame is refused until a
// handshake has admitted the session.
func TestOversizedFrameClosedBeforeAllocating(t *testing.T) {
	for _, tc := range []struct {
		name     string
		token    string
		declared uint32
	}{
		{"open server, 2 GiB", "", 2 << 30},
		{"token server, 2 GiB", "hunter2", 2 << 30},
		{"token server, pre-auth 64 KiB", "hunter2", 64 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := NewServer(store.NewServer())
			srv.SetSessionLimits(store.SessionLimits{Token: tc.token})
			go func() { _ = srv.Serve(l) }()
			defer l.Close()

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			var hdr [4]byte
			binary.LittleEndian.PutUint32(hdr[:], tc.declared)
			if _, err := conn.Write(append(hdr[:], make([]byte, 1024)...)); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			_, err = conn.Read(make([]byte, 1))
			var ne net.Error
			if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
				t.Fatalf("server kept the connection open: %v", err)
			}
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
				t.Fatalf("server allocated %d bytes for a refused frame", grew)
			}
		})
	}

	// After a successful handshake the full frame budget applies.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	backend := store.NewServer()
	srv := NewServer(backend)
	srv.SetSessionLimits(store.SessionLimits{Token: "hunter2"})
	go func() { _ = srv.Serve(l) }()
	defer l.Close()
	cfg := DefaultClientConfig()
	cfg.Token = "hunter2"
	c, err := DialWith(l.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateArray("big", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteCells("big", []int64{0}, [][]byte{make([]byte, 64<<10)}); err != nil {
		t.Fatalf("64 KiB write after handshake: %v", err)
	}
}

// liveHeap returns the bytes of reachable heap objects.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestWrittenCellsDoNotPinFrames: ciphertexts written over TCP — a filled
// tree, random Path ORAM path writes and batched cell writes — are stored
// in their own allocations. If they aliased the request frames, a leaf
// bucket's cells (rewritten only every ~2^(L-1) paths) would keep whole
// paths alive, and the server's heap would hold several copies of the tree
// that Stats().StoredBytes never shows.
func TestWrittenCellsDoNotPinFrames(t *testing.T) {
	const levels, slots, cellSize, writes = 8, 2, 1 << 10, 1000
	c, backend := startServer(t)
	cell := func() []byte { return bytes.Repeat([]byte{0xa5}, cellSize) }
	before := liveHeap()
	if err := c.CreateTree("t", levels, slots); err != nil {
		t.Fatal(err)
	}
	all := make([][]byte, (1<<levels-1)*slots)
	for i := range all {
		all[i] = cell()
	}
	if err := c.WriteBuckets("t", 0, all); err != nil {
		t.Fatal(err)
	}
	all = nil
	const cells, perBatch = 1024, 64
	if err := c.CreateArray("a", cells); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < writes; i++ {
		path := make([][]byte, levels*slots)
		for j := range path {
			path[j] = cell()
		}
		if err := c.WritePath("t", uint32(rng.Intn(1<<(levels-1))), path); err != nil {
			t.Fatal(err)
		}
		op := store.BatchOp{Write: true, Name: "a"}
		for j := 0; j < perBatch; j++ {
			op.Idx = append(op.Idx, int64(rng.Intn(cells)))
			op.Cts = append(op.Cts, cell())
		}
		if _, err := c.Batch([]store.BatchOp{op}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := backend.Stats()
	if err != nil {
		t.Fatal(err)
	}
	retained := liveHeap() - before
	t.Logf("retained %d heap bytes for %d stored", retained, st.StoredBytes)
	// Slack covers the connection's reusable frame buffers on both ends.
	if limit := st.StoredBytes*3/2 + 1<<20; retained > limit {
		t.Fatalf("retained %d heap bytes for %d stored ciphertext bytes (limit %d): stored cells pin their frames",
			retained, st.StoredBytes, limit)
	}
}

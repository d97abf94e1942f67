package transport

import (
	"encoding/binary"
	"fmt"
	"io"

	"github.com/oblivfd/oblivfd/internal/otrace"
	"github.com/oblivfd/oblivfd/internal/store"
	"github.com/oblivfd/oblivfd/internal/wire"
)

// Frame format. Every message on a connection is one frame:
//
//	length u32 | body
//
// and every body has a fixed layout (internal/wire encodings,
// little-endian). A request body is
//
//	kind u8 | ctx [26]byte | the kind's fields, in this order:
//	name str | n i64 | levels i64 | slots i64 | leaf u32 | value i64 |
//	seq i64 | idx []i64 | cts [][]byte | ops []op | token str
//
// where only the fields requestLayout lists for the kind are present, and a
// batch op is
//
//	write u8 | name str | idx []i64 | cts [][]byte (writes only)
//
// A response body is
//
//	code u8 | err str | n i64 | stats [89]byte | fence i64 | seq i64 | cts [][]byte
//
// again restricted to the fields responseLayout lists for the request's
// kind (code and err are always present). Every frame length is therefore a
// closed-form function of public sizes — name, token and index counts,
// ciphertext lengths — and the 26-byte trace context is raw bytes at a
// fixed offset, whatever IDs it carries (DESIGN.md §14).

// field names one optional member of a request or response body. The bit
// order is the encoding order.
type field uint16

const (
	fName field = 1 << iota
	fN
	fLevels
	fSlots
	fLeaf
	fValue
	fSeq
	fIdx
	fCts
	fOps
	fToken
	fStats
	fFence
)

// requestLayout lists each request kind's fields.
var requestLayout = [numKinds]field{
	kindCreateArray:  fName | fN,
	kindArrayLen:     fName,
	kindReadCells:    fName | fIdx,
	kindWriteCells:   fName | fIdx | fCts,
	kindCreateTree:   fName | fLevels | fSlots,
	kindReadPath:     fName | fLeaf,
	kindWritePath:    fName | fLeaf | fCts,
	kindWriteBuckets: fName | fN | fCts,
	kindDelete:       fName,
	kindReveal:       fName | fValue,
	kindStats:        0,
	kindCheckpoint:   fValue,
	kindBatch:        fOps,
	kindHello:        fName | fValue | fToken,
	kindReplicate:    fValue | fSeq | fCts | fToken,
	kindSync:         fValue | fSeq | fCts | fToken,
	kindPromote:      fValue | fToken,
	kindTraceDump:    fName | fToken,
	kindRepair:       fName | fN | fValue | fIdx | fToken,
}

// responseLayout lists the fields of each request kind's response.
var responseLayout = [numKinds]field{
	kindArrayLen:  fN,
	kindReadCells: fCts,
	kindReadPath:  fCts,
	kindStats:     fStats,
	kindBatch:     fCts,
	kindHello:     fFence,
	kindReplicate: fFence | fSeq,
	kindSync:      fFence | fSeq,
	kindPromote:   fFence | fSeq,
	kindTraceDump: fCts,
	kindRepair:    fFence | fSeq | fCts,
}

const (
	// maxFrame caps any frame body: a whole-snapshot resync is the largest
	// legitimate message.
	maxFrame = 1 << 30
	// preAuthMaxFrame caps frames a token-protected server accepts before
	// a handshake has admitted the session — ample for a kindHello, far too
	// small to make an unauthenticated peer's declared length expensive.
	preAuthMaxFrame = 4 << 10
	// keepFrameBuf is the largest encode buffer a connection keeps for
	// reuse; a rare huge frame (snapshot resync) is not pinned in memory.
	keepFrameBuf = 1 << 20
)

// zeroCtx is the context header sent when a request carries none.
var zeroCtx = otrace.SpanContext{}.Wire()

// appendRequest appends req as one frame to b.
func appendRequest(b []byte, req *request) []byte {
	w := wire.Writer{B: append(b, 0, 0, 0, 0)}
	start := len(b)
	w.U8(uint8(req.Kind))
	if len(req.Ctx) == otrace.WireSize {
		w.Raw(req.Ctx)
	} else {
		w.Raw(zeroCtx)
	}
	has := requestLayout[req.Kind]
	if has&fName != 0 {
		w.String(req.Name)
	}
	if has&fN != 0 {
		w.I64(int64(req.N))
	}
	if has&fLevels != 0 {
		w.I64(int64(req.Levels))
	}
	if has&fSlots != 0 {
		w.I64(int64(req.Slots))
	}
	if has&fLeaf != 0 {
		w.U32(req.Leaf)
	}
	if has&fValue != 0 {
		w.I64(req.Value)
	}
	if has&fSeq != 0 {
		w.I64(req.Seq)
	}
	if has&fIdx != 0 {
		w.Int64s(req.Idx)
	}
	if has&fCts != 0 {
		w.ByteSlices(req.Cts)
	}
	if has&fOps != 0 {
		w.U32(uint32(len(req.Ops)))
		for _, op := range req.Ops {
			w.Bool(op.Write)
			w.String(op.Name)
			w.Int64s(op.Idx)
			if op.Write {
				w.ByteSlices(op.Cts)
			}
		}
	}
	if has&fToken != 0 {
		w.String(req.Token)
	}
	binary.LittleEndian.PutUint32(w.B[start:], uint32(len(w.B)-start-4))
	return w.B
}

// decodeRequest parses a request body. Byte strings alias body; serveCall
// copies out the ciphertexts a write stores.
func decodeRequest(body []byte) (*request, error) {
	r := wire.NewReader(body)
	req := &request{Kind: kind(r.U8()), Ctx: r.Raw(otrace.WireSize)}
	if req.Kind >= numKinds {
		return nil, fmt.Errorf("%w: unknown request kind %d", wire.ErrMalformed, req.Kind)
	}
	has := requestLayout[req.Kind]
	if has&fName != 0 {
		req.Name = r.String()
	}
	if has&fN != 0 {
		req.N = int(r.I64())
	}
	if has&fLevels != 0 {
		req.Levels = int(r.I64())
	}
	if has&fSlots != 0 {
		req.Slots = int(r.I64())
	}
	if has&fLeaf != 0 {
		req.Leaf = r.U32()
	}
	if has&fValue != 0 {
		req.Value = r.I64()
	}
	if has&fSeq != 0 {
		req.Seq = r.I64()
	}
	if has&fIdx != 0 {
		req.Idx = r.Int64s()
	}
	if has&fCts != 0 {
		req.Cts = r.ByteSlices()
	}
	if has&fOps != 0 {
		n := r.Count(1 + 4 + 4) // the smallest op: a read of nothing
		if n > 0 {
			req.Ops = make([]store.BatchOp, n)
		}
		for i := range req.Ops {
			op := &req.Ops[i]
			op.Write, op.Name, op.Idx = r.Bool(), r.String(), r.Int64s()
			if op.Write {
				op.Cts = r.ByteSlices()
			}
		}
	}
	if has&fToken != 0 {
		req.Token = r.String()
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return req, nil
}

// appendResponse appends resp, answering a request of kind k, as one frame
// to b.
func appendResponse(b []byte, k kind, resp *response) []byte {
	w := wire.Writer{B: append(b, 0, 0, 0, 0)}
	start := len(b)
	w.U8(uint8(resp.Code))
	w.String(resp.Err)
	has := responseLayout[k]
	if has&fN != 0 {
		w.I64(int64(resp.N))
	}
	if has&fStats != 0 {
		st := &resp.Stats
		for _, v := range [...]int64{int64(st.Objects), st.StoredBytes, st.FaultsInjected, st.Retries,
			st.Reconnects, st.Epoch, st.MutationsSinceEpoch} {
			w.I64(v)
		}
		w.Bool(st.Primary)
		for _, v := range [...]int64{st.Fence, st.ReplicaLag, st.Watermark, st.Failovers} {
			w.I64(v)
		}
	}
	if has&fFence != 0 {
		w.I64(resp.Fence)
	}
	if has&fSeq != 0 {
		w.I64(resp.Seq)
	}
	if has&fCts != 0 {
		w.ByteSlices(resp.Cts)
	}
	binary.LittleEndian.PutUint32(w.B[start:], uint32(len(w.B)-start-4))
	return w.B
}

// decodeResponse parses the body of a response to a request of kind k.
// Byte strings alias body.
func decodeResponse(body []byte, k kind) (*response, error) {
	r := wire.NewReader(body)
	resp := &response{Code: errCode(r.U8()), Err: r.String()}
	has := responseLayout[k]
	if has&fN != 0 {
		resp.N = int(r.I64())
	}
	if has&fStats != 0 {
		st := &resp.Stats
		st.Objects = int(r.I64())
		st.StoredBytes, st.FaultsInjected, st.Retries = r.I64(), r.I64(), r.I64()
		st.Reconnects, st.Epoch, st.MutationsSinceEpoch = r.I64(), r.I64(), r.I64()
		st.Primary = r.Bool()
		st.Fence, st.ReplicaLag, st.Watermark, st.Failovers = r.I64(), r.I64(), r.I64(), r.I64()
	}
	if has&fFence != 0 {
		resp.Fence = r.I64()
	}
	if has&fSeq != 0 {
		resp.Seq = r.I64()
	}
	if has&fCts != 0 {
		resp.Cts = r.ByteSlices()
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return resp, nil
}

// readFrame reads one frame and returns its body in a fresh buffer. A
// declared length above limit is refused before anything is allocated, and
// the body buffer grows only as bytes arrive. io.EOF means the peer closed
// cleanly between frames.
func readFrame(r io.Reader, limit uint32) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > limit {
		return nil, fmt.Errorf("transport: frame of %d bytes declared, limit %d", n, limit)
	}
	body, err := wire.ReadN(r, uint64(n))
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return body, err
}

// writeFrame writes one encoded frame with a single Write.
func writeFrame(w io.Writer, frame []byte) error {
	if len(frame)-4 > maxFrame {
		return fmt.Errorf("transport: frame of %d bytes, limit %d", len(frame)-4, maxFrame)
	}
	_, err := w.Write(frame)
	return err
}

// reuseFrameBuf returns buf emptied for the next frame, or nil when it grew
// too large to keep.
func reuseFrameBuf(buf []byte) []byte {
	if cap(buf) > keepFrameBuf {
		return nil
	}
	return buf[:0]
}

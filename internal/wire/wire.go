// Package wire is the one binary codec behind every server-side format:
// WAL records (which the replication stream ships as-is), transport frames
// and snapshots. Every layout is fixed and little-endian, so an encoded
// length is a closed-form function of the values' public sizes:
//
//	u8 = 1, u32 = 4, i64/u64 = 8 bytes
//	bytes/string = 4 + len
//	[]int64      = 4 + 8·n
//	[][]byte     = 4 + Σ (4 + len(bᵢ))
//
// Writer appends; Reader is bounded: every declared count or length is
// checked against the bytes actually left before anything is allocated, so
// a hostile length field costs nothing. Reader errors are sticky — decode a
// whole structure, then check Err (or Finish, which also rejects trailing
// bytes) once.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// ErrMalformed is wrapped by every Reader failure.
var ErrMalformed = errors.New("wire: malformed input")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CRC is the checksum every format uses: CRC-32C (Castagnoli), which the
// hardware computes several times faster than CRC-32 IEEE on short inputs.
func CRC(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// CRCUpdate extends a running CRC-32C over b.
func CRCUpdate(crc uint32, b []byte) uint32 { return crc32.Update(crc, castagnoli, b) }

// Sizes of the variable-length encodings, for pre-sizing a Writer and for
// stating frame lengths as formulas.
func StringSize(s string) int  { return 4 + len(s) }
func Int64sSize(v []int64) int { return 4 + 8*len(v) }
func ByteSlicesSize(v [][]byte) int {
	n := 4
	for _, b := range v {
		n += 4 + len(b)
	}
	return n
}

// Writer appends fixed-layout fields to B.
type Writer struct{ B []byte }

// NewWriter returns a Writer with capacity for n bytes.
func NewWriter(n int) *Writer { return &Writer{B: make([]byte, 0, n)} }

func (w *Writer) U8(v uint8)   { w.B = append(w.B, v) }
func (w *Writer) U32(v uint32) { w.B = binary.LittleEndian.AppendUint32(w.B, v) }
func (w *Writer) U64(v uint64) { w.B = binary.LittleEndian.AppendUint64(w.B, v) }
func (w *Writer) I64(v int64)  { w.U64(uint64(v)) }
func (w *Writer) Raw(b []byte) { w.B = append(w.B, b...) }

func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Bytes writes a u32 length, then b.
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.Raw(b)
}

func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.B = append(w.B, s...)
}

// Int64s writes a u32 count, then each value.
func (w *Writer) Int64s(v []int64) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.I64(x)
	}
}

// ByteSlices writes a u32 count, then each slice as Bytes.
func (w *Writer) ByteSlices(v [][]byte) {
	w.U32(uint32(len(v)))
	for _, b := range v {
		w.Bytes(b)
	}
}

// Reader decodes fields from a byte slice. Byte strings it returns alias
// the input (capacity-clipped so appends cannot clobber a neighbour); the
// caller owns the input and must not reuse it while they are live, and
// copies out (Own) any it keeps for long.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader reads from b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) - r.off }

// Err returns the first decode failure, if any.
func (r *Reader) Err() error { return r.err }

// Finish returns the first decode failure, or an error if any input is
// left unread: every format here is exact-length.
func (r *Reader) Finish() error {
	if r.err == nil && r.Len() != 0 {
		r.fail("%d trailing bytes", r.Len())
	}
	return r.err
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
	}
	r.off = len(r.b)
}

// Raw returns the next n bytes.
func (r *Reader) Raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Len() {
		r.fail("need %d bytes at offset %d, have %d", n, r.off, r.Len())
		return nil
	}
	b := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

func (r *Reader) U8() uint8 {
	if b := r.Raw(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if b := r.Raw(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if b := r.Raw(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *Reader) I64() int64 { return int64(r.U64()) }

// Bool accepts only the canonical encodings 0 and 1.
func (r *Reader) Bool() bool {
	switch v := r.U8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("bool byte %d", v)
		return false
	}
}

// Count reads a u32 element count and checks that count elements of at
// least minSize bytes each can fit in what is left.
func (r *Reader) Count(minSize int) int {
	n := int(r.U32())
	if r.err == nil && n*minSize > r.Len() {
		r.fail("count %d × %d bytes exceeds the %d left", n, minSize, r.Len())
		return 0
	}
	return n
}

// Bytes reads a u32 length and that many bytes. An empty string decodes
// as nil: the never-written cell.
func (r *Reader) Bytes() []byte {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	return r.Raw(n)
}

func (r *Reader) String() string { return string(r.Bytes()) }

// Int64s reads a u32 count and that many values.
func (r *Reader) Int64s() []int64 {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	v := make([]int64, n)
	for i := range v {
		v[i] = r.I64()
	}
	return v
}

// ByteSlices reads a u32 count and that many Bytes.
func (r *Reader) ByteSlices() [][]byte {
	n := r.Count(4)
	if n == 0 {
		return nil
	}
	v := make([][]byte, n)
	for i := range v {
		v[i] = r.Bytes()
	}
	return v
}

// Own gives each element of v its own allocation, in place, and returns v.
// Byte strings a Reader returns alias its whole input, so a caller that
// keeps them past the input's brief use — a server installing ciphertexts
// into its store — owns them first: one live cell must not pin the whole
// frame it arrived in.
func Own(v [][]byte) [][]byte {
	for i, b := range v {
		v[i] = bytes.Clone(b)
	}
	return v
}

// ReadN reads exactly n bytes from r into a fresh slice. It grows the slice
// as bytes arrive instead of trusting n up front, so a length field that
// lies about a short stream costs an allocation proportional to what the
// stream actually holds, not to what it claims.
func ReadN(r io.Reader, n uint64) ([]byte, error) {
	const chunk = 64 << 10
	if n <= chunk {
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		return b, nil
	}
	b := make([]byte, 0, chunk)
	for uint64(len(b)) < n {
		if len(b) == cap(b) {
			grow := uint64(cap(b))
			if left := n - uint64(len(b)); grow > left {
				grow = left
			}
			nb := make([]byte, len(b), uint64(len(b))+grow)
			copy(nb, b)
			b = nb
		}
		m, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err != nil && uint64(len(b)) < n {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return b, nil
}

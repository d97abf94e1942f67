package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter(0)
	w.U8(7)
	w.U32(1 << 31)
	w.I64(-5)
	w.Bool(true)
	w.String("name")
	w.Bytes(nil)
	w.Int64s([]int64{1, -2, 3})
	cts := [][]byte{{1, 2}, nil, {3}}
	w.ByteSlices(cts)
	if want := 1 + 4 + 8 + 1 + StringSize("name") + 4 + Int64sSize(make([]int64, 3)) + ByteSlicesSize(cts); len(w.B) != want {
		t.Fatalf("encoded %d bytes, size formulas say %d", len(w.B), want)
	}

	r := NewReader(w.B)
	if r.U8() != 7 || r.U32() != 1<<31 || r.I64() != -5 || !r.Bool() || r.String() != "name" || r.Bytes() != nil {
		t.Fatal("scalar fields did not round-trip")
	}
	if got := r.Int64s(); !reflect.DeepEqual(got, []int64{1, -2, 3}) {
		t.Fatalf("Int64s = %v", got)
	}
	if got := r.ByteSlices(); !reflect.DeepEqual(got, cts) {
		t.Fatalf("ByteSlices = %v, want %v", got, cts)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderBoundsDeclaredCounts: a count or length larger than what is left
// fails before allocating, and the failure is sticky.
func TestReaderBoundsDeclaredCounts(t *testing.T) {
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3}
	for name, decode := range map[string]func(*Reader){
		"bytes":      func(r *Reader) { r.Bytes() },
		"int64s":     func(r *Reader) { r.Int64s() },
		"byteslices": func(r *Reader) { r.ByteSlices() },
	} {
		r := NewReader(huge)
		decode(r)
		if !errors.Is(r.Err(), ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, r.Err())
		}
		if r.U8() != 0 || r.Len() != 0 {
			t.Errorf("%s: reader kept going after a failure", name)
		}
	}
	if err := NewReader([]byte{2}).Finish(); !errors.Is(err, ErrMalformed) {
		t.Errorf("trailing byte: Finish = %v", err)
	}
	r := NewReader([]byte{2})
	if r.Bool(); !errors.Is(r.Err(), ErrMalformed) {
		t.Errorf("non-canonical bool accepted")
	}
}

// TestReadNGrowsWithInput: a length that lies about a short stream fails
// without allocating what it claims.
func TestReadNGrowsWithInput(t *testing.T) {
	data := bytes.Repeat([]byte{9}, 200<<10)
	got, err := ReadN(bytes.NewReader(data), uint64(len(data)))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("ReadN = %d bytes, %v", len(got), err)
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := ReadN(bytes.NewReader(data[:10]), 1<<40); err != io.ErrUnexpectedEOF {
			t.Fatalf("short stream: err = %v", err)
		}
	})
	if allocs > 4 {
		t.Errorf("short stream cost %v allocations", allocs)
	}
	// The stream must not be read past n.
	rd := bytes.NewReader(data)
	if _, err := ReadN(rd, 100<<10); err != nil || rd.Len() != 100<<10 {
		t.Fatalf("ReadN overran: %d left, %v", rd.Len(), err)
	}
}

// TestOwnDetachesFromInput: after Own, no decoded byte string shares
// memory with the frame it came from, and never-written cells stay nil.
func TestOwnDetachesFromInput(t *testing.T) {
	w := NewWriter(0)
	w.ByteSlices([][]byte{[]byte("abc"), nil, []byte("de")})
	frame := w.B
	v := Own(NewReader(frame).ByteSlices())
	for i := range frame {
		frame[i] = 0xff
	}
	if want := [][]byte{[]byte("abc"), nil, []byte("de")}; !reflect.DeepEqual(v, want) {
		t.Fatalf("owned slices changed with their frame: %q, want %q", v, want)
	}
}

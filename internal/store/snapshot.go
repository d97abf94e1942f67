package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"github.com/oblivfd/oblivfd/internal/wire"
)

// Snapshot persistence: the server can serialize its entire encrypted state
// and restore it later — e.g. across restarts of fdserver. Only ciphertexts
// and public structure cross the boundary; the snapshot is exactly as
// sensitive as the server's live memory (which the threat model already
// hands to the adversary).
//
// Wire format (version 3): an 8-byte magic, the root namespace's recovery
// epoch and mutations-since-epoch count, then a CRC-32C-framed payload:
//
//	"OFDSNAP3" | epoch i64 | dirty i64 | payloadLen u64 | crc32c u32 | payload
//	payload = arrays u32 | { name str | cells [][]byte }
//	          trees  u32 | { name str | levels i64 | slots i64 | data [][]byte }
//	          marks  u32 | { db str | epoch i64 | dirty i64 }
//
// All integers are little-endian (internal/wire encodings); objects and
// marks are written in name order, so equal states give equal bytes. The
// CRC covers the epoch and dirty header fields followed by the payload — a
// flipped epoch must not verify, or a resumed client could pass the
// epoch-match check against the wrong state. marks holds every non-root
// namespace's recovery mark inside the CRC-covered payload, so a flipped
// tenant epoch fails verification exactly like a flipped root epoch. The
// rest of the header is validated structurally (magic, sane length). Any
// truncation, bit flip, or shape violation surfaces as ErrCorruptSnapshot —
// never a panic — so callers can classify it as fatal (see
// DefaultRetryable).

// snapshotMagic identifies the framed snapshot format. Version bumps change
// the trailing digit so an old binary fails loudly instead of misparsing.
var snapshotMagic = [8]byte{'O', 'F', 'D', 'S', 'N', 'A', 'P', '3'}

const snapshotHeaderSize = 8 + 8 + 8 + 8 + 4

// maxSnapshotPayload bounds the declared payload length; the reader grows
// its buffer only as bytes actually arrive, so even a plausible lie costs
// nothing.
const maxSnapshotPayload = 1 << 40

// SaveSnapshot serializes all storage objects to w. Trace state and the
// reveal log are not part of the snapshot; the recovery marks are, so a
// restart restores the resume-consistency check too.
func (s *Server) SaveSnapshot(w io.Writer) error {
	s.mu.RLock()
	epoch, dirty, payload := s.encodeSnapshotLocked()
	s.mu.RUnlock()
	header := make([]byte, snapshotHeaderSize)
	copy(header, snapshotMagic[:])
	binary.LittleEndian.PutUint64(header[8:], uint64(epoch))
	binary.LittleEndian.PutUint64(header[16:], uint64(dirty))
	binary.LittleEndian.PutUint64(header[24:], uint64(len(payload)))
	crc := wire.CRCUpdate(wire.CRC(header[8:24]), payload) // epoch | dirty | payload
	binary.LittleEndian.PutUint32(header[32:], crc)
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("store: writing snapshot header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("store: writing snapshot payload: %w", err)
	}
	return nil
}

// encodeSnapshotLocked renders the payload and the root mark. Caller holds
// s.mu (read).
func (s *Server) encodeSnapshotLocked() (epoch, dirty int64, payload []byte) {
	arrays := sortedKeys(s.arrays)
	trees := sortedKeys(s.trees)
	var dbs []string
	for db, m := range s.marks {
		if db == "" {
			epoch, dirty = m.epoch, m.dirty
		} else {
			dbs = append(dbs, db)
		}
	}
	sort.Strings(dbs)

	size := 3 * 4
	for _, name := range arrays {
		size += wire.StringSize(name) + wire.ByteSlicesSize(s.arrays[name].cells)
	}
	for _, name := range trees {
		size += wire.StringSize(name) + 16 + wire.ByteSlicesSize(s.trees[name].data)
	}
	for _, db := range dbs {
		size += wire.StringSize(db) + 16
	}
	w := wire.NewWriter(size)
	w.U32(uint32(len(arrays)))
	for _, name := range arrays {
		w.String(name)
		w.ByteSlices(s.arrays[name].cells)
	}
	w.U32(uint32(len(trees)))
	for _, name := range trees {
		t := s.trees[name]
		w.String(name)
		w.I64(int64(t.levels))
		w.I64(int64(t.slots))
		w.ByteSlices(t.data)
	}
	w.U32(uint32(len(dbs)))
	for _, db := range dbs {
		m := s.marks[db]
		w.String(db)
		w.I64(m.epoch)
		w.I64(m.dirty)
	}
	return epoch, dirty, w.B
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// snapshotState is a decoded, shape-validated snapshot ready to install.
// Its ciphertexts alias the payload buffer it was decoded from.
type snapshotState struct {
	arrays map[string]*array
	trees  map[string]*tree
	marks  map[string]*nsMark
}

// readSnapshot parses and validates a framed snapshot. Every failure mode —
// short read, bad magic (including every earlier format version), CRC
// mismatch, malformed payload, shape violations — wraps
// ErrCorruptSnapshot.
func readSnapshot(r io.Reader) (*snapshotState, error) {
	header := make([]byte, snapshotHeaderSize)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorruptSnapshot, err)
	}
	if !bytes.Equal(header[:8], snapshotMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q (want %q)", ErrCorruptSnapshot, header[:8], snapshotMagic[:])
	}
	plen := binary.LittleEndian.Uint64(header[24:])
	if plen > maxSnapshotPayload {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrCorruptSnapshot, plen)
	}
	payload, err := wire.ReadN(r, plen)
	if err != nil {
		return nil, fmt.Errorf("%w: short payload (want %d bytes): %v", ErrCorruptSnapshot, plen, err)
	}
	want := binary.LittleEndian.Uint32(header[32:])
	if got := wire.CRCUpdate(wire.CRC(header[8:24]), payload); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (got %08x, want %08x)", ErrCorruptSnapshot, got, want)
	}
	st, err := decodeSnapshotPayload(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	epoch := int64(binary.LittleEndian.Uint64(header[8:]))
	dirty := int64(binary.LittleEndian.Uint64(header[16:]))
	if epoch != 0 || dirty != 0 {
		st.marks[""] = &nsMark{epoch: epoch, dirty: dirty}
	}
	return st, nil
}

// decodeSnapshotPayload converts the payload into live objects, validating
// shapes. Checksums are not persisted: the frame's CRC already vouches for
// the bytes, so recomputing per-cell sums from them re-establishes the
// in-memory integrity baseline the scrubber verifies against.
func decodeSnapshotPayload(p []byte) (*snapshotState, error) {
	r := wire.NewReader(p)
	st := &snapshotState{
		arrays: make(map[string]*array),
		trees:  make(map[string]*tree),
		marks:  make(map[string]*nsMark),
	}
	// Names must be strictly increasing within each list: that is the order
	// SaveSnapshot writes, it rules out duplicates, and it makes the format
	// canonical — a payload decodes only if re-encoding reproduces it.
	prev := ""
	for i, n := 0, r.Count(8); i < n; i++ {
		name, cells := r.String(), r.ByteSlices()
		if r.Err() != nil {
			break
		}
		if i > 0 && name <= prev {
			return nil, fmt.Errorf("array %q out of order after %q", name, prev)
		}
		prev = name
		if cells == nil {
			cells = [][]byte{}
		}
		st.arrays[name] = &array{cells: cells}
	}
	for i, n := 0, r.Count(24); i < n; i++ {
		name, levels, slots, data := r.String(), r.I64(), r.I64(), r.ByteSlices()
		if r.Err() != nil {
			break
		}
		if i > 0 && name <= prev {
			return nil, fmt.Errorf("tree %q out of order after %q", name, prev)
		}
		prev = name
		if _, dup := st.arrays[name]; dup {
			return nil, fmt.Errorf("object %q is both array and tree", name)
		}
		if levels < 1 || levels > 62 || slots < 1 {
			return nil, fmt.Errorf("tree %q has invalid shape %d×%d", name, levels, slots)
		}
		if buckets := int64(1)<<levels - 1; int64(len(data))%slots != 0 || int64(len(data))/slots != buckets {
			return nil, fmt.Errorf("tree %q has %d slots, want %d buckets of %d", name, len(data), buckets, slots)
		}
		st.trees[name] = &tree{levels: int(levels), slots: int(slots), data: data}
	}
	for i, n := 0, r.Count(20); i < n; i++ {
		db, epoch, dirty := r.String(), r.I64(), r.I64()
		if r.Err() != nil {
			break
		}
		if db == "" {
			return nil, errors.New("root mark duplicated in payload")
		}
		if !ValidDBName(db) {
			return nil, fmt.Errorf("invalid namespace %q in marks", db)
		}
		if i > 0 && db <= prev {
			return nil, fmt.Errorf("namespace %q out of order after %q", db, prev)
		}
		prev = db
		st.marks[db] = &nsMark{epoch: epoch, dirty: dirty}
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	for _, a := range st.arrays {
		a.sums = make([]uint32, len(a.cells))
		for i, c := range a.cells {
			a.bytes += int64(len(c))
			a.sums[i] = cellSum(c)
		}
	}
	for _, t := range st.trees {
		t.sums = make([]uint32, len(t.data))
		for i, c := range t.data {
			t.bytes += int64(len(c))
			t.sums[i] = cellSum(c)
		}
	}
	return st, nil
}

// LoadSnapshot replaces the server's storage with the snapshot read from r.
// Truncated or corrupted input returns an error wrapping ErrCorruptSnapshot
// (check with errors.Is) and leaves the server's current state untouched.
func (s *Server) LoadSnapshot(r io.Reader) error {
	st, err := readSnapshot(r)
	if err != nil {
		return err
	}
	// Decoded cells alias the payload; once any is rewritten the payload
	// would live on for the rest, so each gets its own allocation.
	for _, a := range st.arrays {
		wire.Own(a.cells)
	}
	for _, t := range st.trees {
		wire.Own(t.data)
	}
	s.mu.Lock()
	s.arrays = st.arrays
	s.trees = st.trees
	s.marks = st.marks
	s.mu.Unlock()
	return nil
}

// IsCorrupt reports whether err indicates unrecoverable on-disk corruption
// (snapshot or WAL). Exposed for operators scripting recovery decisions.
func IsCorrupt(err error) bool {
	return errors.Is(err, ErrCorruptSnapshot) || errors.Is(err, ErrCorruptWAL)
}

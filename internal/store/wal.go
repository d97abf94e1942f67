package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"syscall"

	"github.com/oblivfd/oblivfd/internal/wire"
)

// Write-ahead log: every mutating storage operation is appended as one
// self-contained CRC-32C-framed record before the server acknowledges it.
// Recovery replays the log over the newest valid snapshot; a torn tail
// (partial frame from a crash mid-append) is detected by the framing and
// truncated, never replayed and never a panic.
//
// File format: the 8-byte version header "OFDWAL01" (written with the first
// record, so an empty file is an empty log), then frames. Frame format, all
// little-endian (internal/wire encodings):
//
//	payloadLen u32 | crc32c(payload) u32 | payload
//	payload = op u8 | name str | n i64 | levels i64 | slots i64 | leaf u32 | idx []i64 | cts [][]byte
//
// Frames are self-contained, so replay can start from any snapshot boundary
// and a torn frame cannot poison its successors. The replication stream
// ships these same frames, byte for byte.

// walOp enumerates the mutations the log can carry. Reads are not logged:
// they change nothing the snapshot+log must reconstruct.
type walOp uint8

const (
	walCreateArray walOp = iota
	walWriteCells
	walCreateTree
	walWritePath
	walWriteBuckets
	walDelete
	walCheckpoint
	walFence
	walRepairCells
	walRepairSlots
)

var walOpNames = [...]string{
	"CreateArray", "WriteCells", "CreateTree", "WritePath", "WriteBuckets", "Delete", "Checkpoint", "Fence",
	"RepairCells", "RepairSlots",
}

func (o walOp) String() string {
	if int(o) < len(walOpNames) {
		return walOpNames[o]
	}
	return fmt.Sprintf("walOp(%d)", uint8(o))
}

// walRecord is one logged mutation. Field use depends on Op:
//
//	CreateArray:  Name, N
//	WriteCells:   Name, Idx, Cts
//	CreateTree:   Name, Levels, Slots
//	WritePath:    Name, Leaf, Cts
//	WriteBuckets: Name, N (bucketStart), Cts
//	Delete:       Name
//	Checkpoint:   Name (database namespace, "" = root), N (epoch)
//	Fence:        N (fencing epoch), Name ("primary" or "replica" — the role
//	              adopted with it)
//	RepairCells:  Name, Idx, Cts (array self-heal; replays as an install —
//	              no dirty bump, no trace event)
//	RepairSlots:  Name, Idx (flat slot indices), Cts (tree self-heal)
type walRecord struct {
	Op     walOp
	Name   string
	N      int64
	Levels int
	Slots  int
	Leaf   uint32
	Idx    []int64
	Cts    [][]byte
}

// walMagic is the version header every non-empty log file starts with. A
// log from before the fixed-layout codec (gob records, no header) fails it
// with ErrCorruptWAL instead of passing as a torn tail and being truncated.
var walMagic = [walHeaderSize]byte{'O', 'F', 'D', 'W', 'A', 'L', '0', '1'}

const walHeaderSize = 8

// maxWALPayload bounds a frame's payload to what its u32 length field can
// declare; readers never allocate more than the bytes actually present.
const maxWALPayload = 1<<32 - 1

// walFrameSize is the exact encoded length of rec: the 8-byte header, op,
// name, N/Levels/Slots, Leaf, Idx and Cts, which comes to
//
//	49 + len(Name) + 8·len(Idx) + Σ (4 + len(Cts[i]))
func walFrameSize(rec *walRecord) int {
	return 8 + 1 + wire.StringSize(rec.Name) + 3*8 + 4 + wire.Int64sSize(rec.Idx) + wire.ByteSlicesSize(rec.Cts)
}

// encodeWALRecord renders one framed record. The frame is freshly
// allocated and never modified afterwards: the durable layer appends it
// and the replication layer ships it.
func encodeWALRecord(rec *walRecord) ([]byte, error) {
	size := walFrameSize(rec)
	if uint64(size-8) > maxWALPayload {
		return nil, fmt.Errorf("store: WAL record of %d bytes exceeds the frame limit", size)
	}
	w := wire.NewWriter(size)
	w.U32(uint32(size - 8))
	w.U32(0) // checksum, filled in below
	w.U8(uint8(rec.Op))
	w.String(rec.Name)
	w.I64(rec.N)
	w.I64(int64(rec.Levels))
	w.I64(int64(rec.Slots))
	w.U32(rec.Leaf)
	w.Int64s(rec.Idx)
	w.ByteSlices(rec.Cts)
	binary.LittleEndian.PutUint32(w.B[4:], wire.CRC(w.B[8:]))
	return w.B, nil
}

// decodeWALPayload parses a checksummed payload. The record's byte strings
// alias p; callers that install them into a Server own them first
// (wire.Own). A payload that passed its checksum but does not parse is
// corruption, never a torn tail.
func decodeWALPayload(p []byte) (*walRecord, error) {
	r := wire.NewReader(p)
	rec := &walRecord{
		Op:     walOp(r.U8()),
		Name:   r.String(),
		N:      r.I64(),
		Levels: int(r.I64()),
		Slots:  int(r.I64()),
		Leaf:   r.U32(),
		Idx:    r.Int64s(),
		Cts:    r.ByteSlices(),
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptWAL, err)
	}
	if int(rec.Op) >= len(walOpNames) {
		return nil, fmt.Errorf("%w: unknown op %v", ErrCorruptWAL, rec.Op)
	}
	return rec, nil
}

// decodeWALFrame validates and parses one complete frame held in memory
// (a replication shipment): the declared length must match exactly and the
// checksum must verify before anything is decoded.
func decodeWALFrame(frame []byte) (*walRecord, error) {
	if len(frame) < 8 || uint64(binary.LittleEndian.Uint32(frame)) != uint64(len(frame)-8) {
		return nil, errTornFrame
	}
	if wire.CRC(frame[8:]) != binary.LittleEndian.Uint32(frame[4:]) {
		return nil, errTornFrame
	}
	return decodeWALPayload(frame[8:])
}

// errTornFrame distinguishes an incomplete/garbled tail (expected after a
// crash; truncate and continue) from corruption in the middle of the log.
var errTornFrame = errors.New("torn frame")

// readWALRecord reads one frame from r. io.EOF means a clean end;
// errTornFrame means the bytes at the current offset do not form a complete
// frame with a valid checksum; an error wrapping ErrCorruptWAL means a
// checksummed frame that does not decode.
func readWALRecord(r io.Reader) (*walRecord, int64, error) {
	var header [8]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, errTornFrame // partial header
	}
	plen := binary.LittleEndian.Uint32(header[0:])
	payload, err := wire.ReadN(r, uint64(plen))
	if err != nil {
		return nil, 0, errTornFrame // partial payload
	}
	if wire.CRC(payload) != binary.LittleEndian.Uint32(header[4:]) {
		return nil, 0, errTornFrame
	}
	rec, err := decodeWALPayload(payload)
	if err != nil {
		return nil, 0, err
	}
	return rec, int64(8 + len(payload)), nil
}

// scanWAL reads a log file: the version header, then every complete frame.
// It reports the byte offset of the end of the last valid frame; a torn
// tail stops the scan with torn set, and the caller truncates the file to
// validEnd. An empty file is an empty log. A foreign or outdated header, or
// a checksummed frame that does not decode, returns an error wrapping
// ErrCorruptWAL: those are never a crash artifact and must not be
// truncated away.
func scanWAL(r io.Reader) (records []*walRecord, validEnd int64, torn bool, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var header [walHeaderSize]byte
	switch n, herr := io.ReadFull(br, header[:]); {
	case n == 0:
		return nil, 0, false, nil
	case herr != nil && bytes.HasPrefix(walMagic[:], header[:n]):
		return nil, 0, true, nil // crash during the very first append
	case header != walMagic:
		return nil, 0, false, fmt.Errorf("%w: log header %q is not %q", ErrCorruptWAL, header[:n], walMagic[:])
	}
	validEnd = walHeaderSize
	for {
		rec, n, err := readWALRecord(br)
		switch {
		case err == io.EOF:
			return records, validEnd, false, nil
		case err == errTornFrame:
			return records, validEnd, true, nil
		case err != nil:
			return records, validEnd, false, fmt.Errorf("%w at offset %d", err, validEnd)
		}
		records = append(records, rec)
		validEnd += n
	}
}

// applyRecord applies one record to the in-memory server. Replay semantics
// (replay=true) are idempotent so recovery tolerates a snapshot that already
// includes a prefix of the log (possible when a crash lands between
// snapshot rename and log truncation), and a replica tolerates re-shipped
// creates: creates replace any existing object, deletes of missing objects
// succeed, and cell/path/bucket writes are plain overwrites. Live semantics
// are the Service contract's.
func (s *Server) applyRecord(rec *walRecord, replay bool) error {
	switch rec.Op {
	case walCreateArray:
		if replay {
			_ = s.Delete(rec.Name)
		}
		return s.CreateArray(rec.Name, int(rec.N))
	case walWriteCells:
		return s.WriteCells(rec.Name, rec.Idx, rec.Cts)
	case walCreateTree:
		if replay {
			_ = s.Delete(rec.Name)
		}
		return s.CreateTree(rec.Name, rec.Levels, rec.Slots)
	case walWritePath:
		return s.WritePath(rec.Name, rec.Leaf, rec.Cts)
	case walWriteBuckets:
		return s.WriteBuckets(rec.Name, int(rec.N), rec.Cts)
	case walDelete:
		if err := s.Delete(rec.Name); err != nil && !(replay && errors.Is(err, ErrUnknownObject)) {
			return err
		}
		return nil
	case walCheckpoint:
		// Name carries the database namespace; "" is the root.
		return s.CheckpointNS(rec.Name, rec.N)
	case walFence:
		// Fencing epochs are an audit trail in the log; the FENCE file
		// (see replicate.go) is the authoritative durable copy, so there is
		// nothing to apply to the in-memory state.
		return nil
	case walRepairCells, walRepairSlots:
		return s.InstallStored(rec.Name, rec.Op == walRepairSlots, rec.Idx, rec.Cts)
	default:
		return fmt.Errorf("unknown op %v", rec.Op)
	}
}

// replayWAL applies records to the in-memory server in log order with
// replay semantics. A record that still fails (e.g. a write to an object no
// create established) means the log does not extend this snapshot — that
// is corruption, not a torn tail.
func replayWAL(s *Server, records []*walRecord) error {
	for i, rec := range records {
		rec.Cts = wire.Own(rec.Cts) // stored cells must not pin the frame read from disk
		if err := s.applyRecord(rec, true); err != nil {
			return fmt.Errorf("%w: record %d (%v %q): %v", ErrCorruptWAL, i, rec.Op, rec.Name, err)
		}
	}
	return nil
}

// errWALFailStop classifies WAL failures the durable layer must treat as
// fail-stop: an fsync error (the kernel may have dropped dirty pages — data
// already acknowledged could be gone, so continuing risks acking writes that
// never become durable; the "fsyncgate" lesson), or a torn write that could
// not be rolled back (the on-disk log no longer matches the in-memory size
// accounting). Disk-full with a clean rollback is NOT fail-stop — it wraps
// ErrDiskFull and the server degrades to read-only instead.
var errWALFailStop = errors.New("store: WAL fail-stop")

// walWriter appends framed records to the log file.
type walWriter struct {
	f           File
	syncEvery   int   // fsync cadence in records; <=1 syncs every append
	pending     int   // appends since last fsync
	appended    int64 // total records appended (kill-point accounting)
	size        int64 // current file size in bytes
	truncations int64 // times truncate() ran (scrub race guard)
}

func openWALWriter(fsys FS, path string, syncEvery int) (*walWriter, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &walWriter{f: f, syncEvery: syncEvery, size: info.Size()}, nil
}

// withHeader prefixes the file's version header to the first frame written
// into an empty log, so header and frame land (or roll back) together.
func (w *walWriter) withHeader(frame []byte) []byte {
	if w.size != 0 {
		return frame
	}
	return append(walMagic[:], frame...)
}

// append writes one encoded frame, fsyncing per the cadence. A failed
// write (ENOSPC) is rolled back by truncating to the pre-append size so the
// log never carries a torn frame the next recovery would mistake for a
// crash; only if that rollback itself fails does the error escalate to
// fail-stop.
func (w *walWriter) append(frame []byte) error {
	buf := w.withHeader(frame)
	if _, err := w.f.Write(buf); err != nil {
		if terr := w.f.Truncate(w.size); terr != nil {
			return fmt.Errorf("%w: append failed (%v) and rollback truncate failed: %v", errWALFailStop, err, terr)
		}
		if _, serr := w.f.Seek(w.size, io.SeekStart); serr != nil {
			return fmt.Errorf("%w: append failed (%v) and rollback seek failed: %v", errWALFailStop, err, serr)
		}
		if errors.Is(err, ErrDiskFull) || isENOSPC(err) {
			return fmt.Errorf("store: appending WAL record: %w", err)
		}
		return fmt.Errorf("%w: appending WAL record: %v", errWALFailStop, err)
	}
	w.size += int64(len(buf))
	w.appended++
	w.pending++
	if w.syncEvery <= 1 || w.pending >= w.syncEvery {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("%w: syncing WAL: %v", errWALFailStop, err)
		}
		w.pending = 0
	}
	return nil
}

// isENOSPC reports whether err is the real filesystem's out-of-space errno
// (the injected form already wraps ErrDiskFull).
func isENOSPC(err error) bool {
	return errors.Is(err, syscall.ENOSPC)
}

// appendTorn simulates a crash mid-append for the kill-point harness: it
// writes only a prefix of the frame (at least the header plus one payload
// byte when possible, never the whole frame) and syncs, leaving exactly the
// torn tail a real SIGKILL between write and completion would.
func (w *walWriter) appendTorn(frame []byte) error {
	cut := len(frame) / 2
	if cut < 9 && len(frame) > 9 {
		cut = 9
	}
	if cut >= len(frame) {
		cut = len(frame) - 1
	}
	if cut < 1 {
		cut = 1
	}
	buf := w.withHeader(frame[:cut])
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("store: appending torn WAL record: %w", err)
	}
	w.size += int64(len(buf))
	return w.f.Sync()
}

// truncate resets the log to empty (after a snapshot absorbed its records).
func (w *walWriter) truncate() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("store: truncating WAL: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("%w: syncing truncated WAL: %v", errWALFailStop, err)
	}
	w.size = 0
	w.pending = 0
	w.truncations++
	return nil
}

func (w *walWriter) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

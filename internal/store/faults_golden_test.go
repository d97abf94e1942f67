package store

import (
	"fmt"
	"strings"
	"testing"
)

// goldenFaultSchedule is the outcome of driveGolden, recorded once and
// pinned: a seeded chaos run must replay exactly, whatever shape the
// decorator code takes. Each line is the call's position in the sequence,
// the operation, the injected verdict ("ok" or the injected error, which
// names the schedule slot it drew) and whether its payload was corrupted.
var goldenFaultSchedule = []string{
	"00 ArrayLen: store: transient fault: injected before ArrayLen (call 0) corrupted=false",
	"01 ReadCells: store: transient fault: injected after ReadCells (call 1) corrupted=false",
	"02 WriteCells: ok corrupted=false",
	"03 ReadPath: ok corrupted=false",
	"04 WritePath: store: transient fault: injected before WritePath (call 4) corrupted=false",
	"05 WriteBuckets: ok corrupted=false",
	"06 Batch: store: transient fault: injected after WriteCells (call 7) corrupted=false",
	"07 CreateArray: store: transient fault: injected before CreateArray (call 8) corrupted=false",
	"08 Delete: store: unknown object: \"tmp0\" corrupted=false",
	"09 Reveal: ok corrupted=false",
	"10 Checkpoint: store: transient fault: injected before Checkpoint (call 11) corrupted=false",
	"11 Stats: ok corrupted=false",
	"12 ArrayLen: ok corrupted=false",
	"13 ReadCells: ok corrupted=false",
	"14 WriteCells: store: transient fault: injected before WriteCells (call 14) corrupted=false",
	"15 ReadPath: ok corrupted=false",
	"16 WritePath: ok corrupted=false",
	"17 WriteBuckets: ok corrupted=false",
	"18 Batch: store: transient fault: injected before ReadCells (call 18) corrupted=false",
	"19 CreateArray: store: transient fault: injected before CreateArray (call 19) corrupted=false",
	"20 Delete: store: unknown object: \"tmp1\" corrupted=false",
	"21 Reveal: store: transient fault: injected after Reveal (call 21) corrupted=false",
	"22 Checkpoint: ok corrupted=false",
	"23 Stats: ok corrupted=false",
	"24 ArrayLen: store: transient fault: injected after ArrayLen (call 23) corrupted=false",
	"25 ReadCells: ok corrupted=false",
	"26 WriteCells: ok corrupted=false",
	"27 ReadPath: ok corrupted=false",
	"28 WritePath: store: transient fault: injected after WritePath (call 27) corrupted=false",
	"29 WriteBuckets: ok corrupted=false",
	"30 Batch: store: transient fault: injected before ReadCells (call 29) corrupted=false",
	"31 CreateArray: ok corrupted=false",
	"32 Delete: ok corrupted=false",
	"33 Reveal: ok corrupted=false",
	"34 Checkpoint: store: transient fault: injected before Checkpoint (call 33) corrupted=false",
	"35 Stats: ok corrupted=false",
	"36 ArrayLen: store: transient fault: injected before ArrayLen (call 34) corrupted=false",
	"37 ReadCells: ok corrupted=false",
	"38 WriteCells: ok corrupted=false",
	"39 ReadPath: store: transient fault: injected after ReadPath (call 37) corrupted=false",
	"40 WritePath: ok corrupted=false",
	"41 WriteBuckets: store: transient fault: injected before WriteBuckets (call 39) corrupted=false",
	"42 Batch: store: transient fault: injected before ReadCells (call 40) corrupted=false",
	"43 CreateArray: store: transient fault: injected before CreateArray (call 41) corrupted=false",
	"44 Delete: store: unknown object: \"tmp3\" corrupted=false",
	"45 Reveal: ok corrupted=false",
	"46 Checkpoint: store: transient fault: injected before Checkpoint (call 44) corrupted=false",
	"47 Stats: ok corrupted=false",
	"48 ArrayLen: store: transient fault: injected before ArrayLen (call 45) corrupted=false",
	"49 ReadCells: store: transient fault: injected after ReadCells (call 46) corrupted=false",
	"50 WriteCells: ok corrupted=false",
	"51 ReadPath: ok corrupted=true",
	"52 WritePath: ok corrupted=false",
	"53 WriteBuckets: ok corrupted=false",
	"54 Batch: ok corrupted=true",
	"55 CreateArray: ok corrupted=false",
	"56 Delete: ok corrupted=false",
	"57 Reveal: ok corrupted=false",
	"58 Checkpoint: ok corrupted=false",
	"59 Stats: ok corrupted=false",
	"60 ArrayLen: ok corrupted=false",
	"61 ReadCells: ok corrupted=false",
	"62 WriteCells: store: transient fault: injected before WriteCells (call 60) corrupted=false",
	"63 ReadPath: ok corrupted=false",
	"64 WritePath: ok corrupted=false",
	"65 WriteBuckets: store: transient fault: injected before WriteBuckets (call 63) corrupted=false",
	"66 Batch: store: transient fault: injected after ReadCells (call 64) corrupted=false",
	"67 CreateArray: ok corrupted=false",
	"68 Delete: ok corrupted=false",
	"69 Reveal: store: transient fault: injected before Reveal (call 67) corrupted=false",
	"70 Checkpoint: ok corrupted=false",
	"71 Stats: ok corrupted=false",
	"72 ArrayLen: ok corrupted=false",
	"73 ReadCells: ok corrupted=false",
	"74 WriteCells: ok corrupted=false",
	"75 ReadPath: ok corrupted=true",
	"76 WritePath: store: transient fault: injected before WritePath (call 73) corrupted=false",
	"77 WriteBuckets: ok corrupted=false",
	"78 Batch: store: transient fault: injected after WriteCells (call 76) corrupted=false",
	"79 CreateArray: ok corrupted=false",
	"80 Delete: store: transient fault: injected before Delete (call 78) corrupted=false",
	"81 Reveal: store: transient fault: injected before Reveal (call 79) corrupted=false",
	"82 Checkpoint: ok corrupted=false",
	"83 Stats: ok corrupted=false",
	"84 ArrayLen: ok corrupted=false",
	"85 ReadCells: ok corrupted=false",
	"86 WriteCells: ok corrupted=false",
	"87 ReadPath: ok corrupted=false",
	"88 WritePath: store: transient fault: injected after WritePath (call 85) corrupted=false",
	"89 WriteBuckets: ok corrupted=false",
	"90 Batch: store: transient fault: injected before ReadCells (call 87) corrupted=false",
	"91 CreateArray: store: transient fault: injected before CreateArray (call 88) corrupted=false",
	"92 Delete: store: transient fault: injected before Delete (call 89) corrupted=false",
	"93 Reveal: ok corrupted=false",
	"94 Checkpoint: store: transient fault: injected after Checkpoint (call 91) corrupted=false",
	"95 Stats: ok corrupted=false",
}

// driveGolden runs a fixed serial sequence covering every operation,
// including a 3-op batch and non-idempotent creates and deletes, through
// one fault injector, and returns one line per call.
func driveGolden(t *testing.T) []string {
	t.Helper()
	srv := NewServer()
	if err := srv.CreateArray("a", 8); err != nil {
		t.Fatal(err)
	}
	if err := srv.CreateTree("t", 3, 2); err != nil {
		t.Fatal(err)
	}
	path := make([][]byte, 6)
	for i := range path {
		path[i] = []byte{byte(i + 1), 0xA0}
	}
	all := append(append(append([][]byte(nil), path...), path...), path[:2]...) // 7 buckets × 2 slots
	if err := srv.WriteBuckets("t", 0, all); err != nil {
		t.Fatal(err)
	}
	cells := make([][]byte, 8)
	for i := range cells {
		cells[i] = []byte{byte(i), 0x55}
	}
	if err := srv.WriteCells("a", []int64{0, 1, 2, 3, 4, 5, 6, 7}, cells); err != nil {
		t.Fatal(err)
	}
	f := WithFaults(srv, FaultConfig{Seed: 42, ErrorRate: 0.3, CorruptRate: 0.2})

	var out []string
	for round := 0; round < 8; round++ {
		tmp := fmt.Sprintf("tmp%d", round)
		steps := []struct {
			op string
			do func() error
		}{
			{"ArrayLen", func() error { _, err := f.ArrayLen("a"); return err }},
			{"ReadCells", func() error { _, err := f.ReadCells("a", []int64{1, 2}); return err }},
			{"WriteCells", func() error { return f.WriteCells("a", []int64{3}, [][]byte{{9, byte(round)}}) }},
			{"ReadPath", func() error { _, err := f.ReadPath("t", uint32(round%4)); return err }},
			{"WritePath", func() error { return f.WritePath("t", uint32(round%4), path) }},
			{"WriteBuckets", func() error { return f.WriteBuckets("t", 1, path[:4]) }},
			{"Batch", func() error {
				_, err := DoBatch(f, []BatchOp{
					{Name: "a", Idx: []int64{0, 5}},
					{Write: true, Name: "a", Idx: []int64{6}, Cts: [][]byte{{7, 7}}},
					{Name: "a", Idx: []int64{6, 7}},
				})
				return err
			}},
			{"CreateArray", func() error { return f.CreateArray(tmp, 2) }},
			{"Delete", func() error { return f.Delete(tmp) }},
			{"Reveal", func() error { return f.Reveal("r", int64(round)) }},
			{"Checkpoint", func() error { return f.Checkpoint(int64(round + 1)) }},
			{"Stats", func() error { _, err := f.Stats(); return err }},
		}
		for _, s := range steps {
			before := f.Corruptions()
			verdict := "ok"
			if err := s.do(); err != nil {
				verdict = err.Error()
			}
			out = append(out, fmt.Sprintf("%02d %s: %s corrupted=%t",
				len(out), s.op, verdict, f.Corruptions() != before))
		}
	}
	return out
}

// TestGoldenFaultSchedule pins the seeded fault schedule, so every chaos
// run stays replayable from its seed.
func TestGoldenFaultSchedule(t *testing.T) {
	got := driveGolden(t)
	if strings.Join(got, "\n") != strings.Join(goldenFaultSchedule, "\n") {
		t.Fatalf("fault schedule changed:\n%s", strings.Join(got, "\n"))
	}
}

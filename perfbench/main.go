// Command perfbench is oblivfd's repository benchmark. It drives the public
// securefd API on one named workload for a fixed time, checks every result
// against the plaintext oracle, and prints one JSON result line. With
// -trace 0 it reports end-to-end metrics; with -trace 1 it reports
// per-layer metrics from spans and counters recorded at the public seams,
// plus the tracing overhead. See README.md in this directory.
//
//	go run . -workload sort-tcp -seed 1 -seconds 50 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// outDir, relative to the checkout root, receives the report, span and
// profile files.
var outDir = filepath.Join(".bench_build", "perfbench")

func main() {
	name := flag.String("workload", "", "workload name (sort-tcp, ororam-durable, exoram-dynamic-tcp)")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same datasets and update streams")
	seconds := flag.Float64("seconds", 50, "how long to keep starting new cycles")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and tracing overhead")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d)\n", *name, *trace)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes cycles until the time is up and at least the minimum
// schedule is done. Cycle 0 is a warm-up on dataset 0: it faults in the
// heap and fills caches, and is checked for correctness and determinism but
// not timed. Untraced, the timed cycles then take datasets 0,1,..,k-1,0,..
// (the repeat of dataset 0 is the in-run determinism check). Traced, each
// dataset runs twice, untraced then traced, so the overhead compares like
// with like.
func run(w workload, seed int64, dur time.Duration, traced bool, outDir string) (*result, error) {
	k := datasets
	inputs := make([]*input, k)
	for i := range inputs {
		inputs[i] = makeInput(w, seed, i)
	}
	var cycles []*cycle
	begin := time.Now()
	for j := 0; ; j++ {
		idx, tr, minCycles := 0, false, 1+k
		switch {
		case j == 0:
		case traced:
			idx, tr, minCycles = ((j-1)/2)%k, (j-1)%2 == 1, 3
		default:
			idx = (j - 1) % k
		}
		if j >= minCycles && time.Since(begin) >= dur {
			break
		}
		c, err := runCycle(w, inputs[idx], tr)
		if err != nil {
			return nil, err
		}
		c.warmup = j == 0
		cycles = append(cycles, c)
	}

	rep := newReport(w, seed, traced, cycles)
	rep.checkDeterminism()
	if traced {
		if err := rep.perLayer(outDir); err != nil {
			return nil, err
		}
	} else {
		rep.endToEnd()
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	if err := rep.write(outDir); err != nil {
		return nil, err
	}
	res := &result{Correct: rep.Failed == 0 && len(rep.Nondeterministic) == 0,
		Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metric{}}
	for _, m := range rep.Gated {
		res.Metrics[m.Name] = metric{Value: m.Value, Unit: m.Unit}
	}
	return res, nil
}

// cycleSummary is one cycle's line in the report.
type cycleSummary struct {
	Dataset   int     `json:"dataset"`
	Warmup    bool    `json:"warmup"`
	Traced    bool    `json:"traced"`
	SetupS    float64 `json:"setup_s"`
	DiscoverS float64 `json:"discover_s"`
	CPUS      float64 `json:"discover_cpu_s"`
	Allocs    int64   `json:"discover_allocs"`
	Rounds    int64   `json:"rounds"`
}

// reported is one metric line of the report.
type reported struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Note    string  `json:"note,omitempty"`
}

type report struct {
	Workload         string             `json:"workload"`
	Why              string             `json:"why"`
	Seed             int64              `json:"seed"`
	Traced           bool               `json:"traced"`
	Cycles           int                `json:"cycles"`
	Attempted        int                `json:"attempted"`
	Failed           int                `json:"failed"`
	Problems         []string           `json:"problems,omitempty"`
	Deterministic    map[string]any     `json:"deterministic_counts"`
	Nondeterministic []string           `json:"nondeterministic,omitempty"`
	Gated            []reported         `json:"gated"`    // printed in the result line
	Reported         []reported         `json:"reported"` // printed, not gated
	Absent           []string           `json:"absent,omitempty"`
	CPUShares        map[string]float64 `json:"cpu_shares,omitempty"`
	PerCycle         []cycleSummary     `json:"per_cycle"`

	w      workload
	all    []*cycle // every cycle, warm-up included
	cycles []*cycle // the timed cycles
}

func newReport(w workload, seed int64, traced bool, cycles []*cycle) *report {
	r := &report{Workload: w.name, Why: w.why, Seed: seed, Traced: traced, Cycles: len(cycles), w: w, all: cycles}
	for _, c := range cycles {
		if !c.warmup {
			r.cycles = append(r.cycles, c)
		}
		r.PerCycle = append(r.PerCycle, cycleSummary{c.input, c.warmup, c.traced, median(c.setupS), c.discoverS, c.cpuS, c.allocs, c.win.rounds()})
		r.Attempted += c.attempted
		r.Failed += c.failed
		r.Problems = append(r.Problems, c.problems...)
	}
	return r
}

// detCounts are the counts that must repeat exactly on the same input.
func detCounts(c *cycle) map[string]int64 {
	return map[string]int64{
		"rounds":           c.win.rounds(),
		"comm_bytes":       c.win.BytesUp + c.win.BytesDown,
		"store.reveals":    c.win.Calls[mReveal],
		"oram.path_reads":  c.win.PathReads,
		"oram.path_writes": c.win.PathWrites,
		"oram.path_bytes":  c.win.PathBytes,
		"wal.appends":      c.disk.WALAppends,
		"repl.frames":      c.repl.Frames,
	}
}

// checkDeterminism compares every cycle's counts with the first cycle on
// the same dataset. Any difference is reported and fails the run.
func (r *report) checkDeterminism() {
	first := map[int]map[string]int64{}
	r.Deterministic = map[string]any{}
	bad := map[string]bool{}
	for _, c := range r.all {
		got := detCounts(c)
		want, seen := first[c.input]
		if !seen {
			first[c.input] = got
			continue
		}
		for k, v := range got {
			if want[k] != v && !bad[k] {
				bad[k] = true
				r.Nondeterministic = append(r.Nondeterministic, k)
				r.Problems = append(r.Problems, fmt.Sprintf("%s differs on a repeat of dataset %d: %d vs %d", k, c.input, want[k], v))
			}
		}
	}
	sort.Strings(r.Nondeterministic)
	for i, counts := range first {
		r.Deterministic[fmt.Sprintf("dataset_%d", i)] = counts
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile of xs.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tail is the highest of a fixed ladder of percentiles that still has at
// least ten samples beyond it.
func tail(xs []float64) (p, v float64, ok bool) {
	for _, q := range []float64{99.9, 99, 95, 90, 75, 50} {
		if float64(len(xs))*(100-q)/100 >= 10 {
			return q, percentile(xs, q), true
		}
	}
	return 0, 0, false
}

// perCycle collects one value per cycle.
func (r *report) perCycle(f func(c *cycle) float64) []float64 {
	var out []float64
	for _, c := range r.cycles {
		out = append(out, f(c))
	}
	return out
}

// perDataset collects one value per distinct dataset, from its first
// cycle, so a count's median does not depend on how many repeats fit in
// the run.
func (r *report) perDataset(f func(c *cycle) float64) []float64 {
	seen := map[int]bool{}
	var out []float64
	for _, c := range r.cycles {
		if !seen[c.input] {
			seen[c.input] = true
			out = append(out, f(c))
		}
	}
	return out
}

func (r *report) gate(name, unit string, xs []float64) {
	r.Gated = append(r.Gated, reported{Name: name, Value: median(xs), Unit: unit, Samples: len(xs)})
}

func (r *report) note(name, unit string, v float64, n int, note string) {
	r.Reported = append(r.Reported, reported{Name: name, Value: v, Unit: unit, Samples: n, Note: note})
}

// endToEnd computes the untraced metrics.
func (r *report) endToEnd() {
	var setups []float64
	for _, c := range r.cycles {
		setups = append(setups, c.setupS...)
	}
	r.gate("setup_s", "s", setups)
	r.gate("discover_s", "s", r.perCycle(func(c *cycle) float64 { return c.discoverS }))
	r.gate("discover_cpu_s", "s", r.perCycle(func(c *cycle) float64 { return c.cpuS }))
	r.gate("discover_allocs", "count", r.perCycle(func(c *cycle) float64 { return float64(c.allocs) }))
	r.gate("comm_bytes", "bytes", r.perDataset(func(c *cycle) float64 { return float64(c.win.BytesUp + c.win.BytesDown) }))
	r.gate("rounds", "count", r.perDataset(func(c *cycle) float64 { return float64(c.win.rounds()) }))
	r.gate("client_mem_bytes", "bytes", r.perCycle(func(c *cycle) float64 { return float64(c.clientMem) }))

	var lat []float64
	var ops, opS float64
	for _, c := range r.cycles {
		lat = append(lat, c.updateMS...)
		ops += float64(len(c.updateMS))
		opS += c.updateS
	}
	if len(lat) > 0 {
		r.note("update_p50_ms", "ms", median(lat), len(lat), "")
		if p, v, ok := tail(lat); ok {
			r.note("update_tail_ms", "ms", v, len(lat), fmt.Sprintf("p%g", p))
		} else {
			r.note("update_tail_ms", "ms", 0, len(lat), "fewer than 20 samples: no percentile has ten beyond it")
		}
		r.note("updates_per_s", "1/s", ops/opS, len(lat), "")
		r.note("update_rounds_per_op", "count", median(r.perDataset(func(c *cycle) float64 {
			return float64(c.updWin.rounds()) / float64(len(c.updateMS))
		})), len(r.cycles), "client-seam calls per update call, Revalidate included")
		r.note("update_comm_bytes_per_op", "bytes", median(r.perDataset(func(c *cycle) float64 {
			return float64(c.updWin.BytesUp+c.updWin.BytesDown) / float64(len(c.updateMS))
		})), len(r.cycles), "ciphertext bytes per update call at the client seam")
		r.note("client_mem_after_updates_bytes", "bytes", median(r.perCycle(func(c *cycle) float64 { return float64(c.memAfter) })), len(r.cycles), "")
	} else {
		for _, m := range []struct{ n, u string }{{"update_p50_ms", "ms"}, {"update_tail_ms", "ms"}, {"updates_per_s", "1/s"}} {
			r.note(m.n, m.u, 0, 0, "n/a: this workload issues no updates")
		}
	}
	if r.w.durable {
		var disk, user float64
		for _, c := range r.cycles {
			disk += float64(c.diskTotal)
			user += float64(c.userBytes)
		}
		r.note("disk_bytes_per_user_byte", "ratio", disk/user, len(r.cycles), "WAL + snapshots on primary and replica / ciphertext bytes written at the client seam, whole cycle")
	} else {
		r.note("disk_bytes_per_user_byte", "ratio", 0, 0, "n/a: no durable storage")
	}
	r.note("failed_ops_ratio", "ratio", float64(r.Failed)/float64(r.Attempted), r.Attempted, "")

	fmt.Printf("workload %s seed %d: %d cycles (%s)\n", r.Workload, r.Seed, r.Cycles, r.w.why)
	for _, m := range append(append([]reported(nil), r.Gated...), r.Reported...) {
		extra := ""
		if m.Note != "" {
			extra = " (" + m.Note + ")"
		}
		fmt.Printf("  %-32s %14.6g %-6s samples=%d%s\n", m.Name, m.Value, m.Unit, m.Samples, extra)
	}
}

func (r *report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := 0
	if r.Traced {
		mode = 1
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, mode))
	return os.WriteFile(path, b, 0o644)
}

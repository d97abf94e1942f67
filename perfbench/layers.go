package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/oblivfd/oblivfd/securefd"
)

// accounting is what one traced Discover's spans say about where its time
// went.
type accounting struct {
	discover   float64 // the discover span
	coreSelf   float64 // discover minus the part client-seam calls cover
	union      float64 // union of all client-seam intervals
	coreResid  float64 // discover - coreSelf - union: client spans outside Discover
	clientCall float64 // summed client-seam call durations
	handle     float64 // summed server-seam call durations
	overhead   float64 // summed (client call - its server call), paired calls
	tResid     float64 // clientCall - handle - overhead: unpaired calls
}

const nsPerS = 1e9

// account computes c's accounting and links each span to its parent: a
// client-seam call to the discover span, a server-seam call to the
// client-seam call it serves (same request, nested in time), and a disk or
// replication span to the innermost seam call around it.
func account(c *cycle) accounting {
	var a accounting
	var root span
	var client, server, inner []*span
	for i := range c.spans {
		sp := &c.spans[i]
		switch {
		case sp.ID == c.discoverSpanID:
			root = *sp
		case sp.Layer == "client":
			sp.Parent = c.discoverSpanID
			client = append(client, sp)
		case sp.Layer == "server":
			server = append(server, sp)
		default:
			inner = append(inner, sp)
		}
	}
	byStart := func(s []*span) {
		sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	}
	byStart(client)
	byStart(server)

	a.discover = float64(root.dur()) / nsPerS
	var union, covered int64
	var curS, curE int64 = -1, -1
	flush := func() {
		if curE < 0 {
			return
		}
		union += curE - curS
		lo, hi := max(curS, root.Start), min(curE, root.End)
		if hi > lo {
			covered += hi - lo
		}
	}
	for _, sp := range client {
		a.clientCall += float64(sp.dur()) / nsPerS
		if sp.Start > curE {
			flush()
			curS, curE = sp.Start, sp.End
		} else if sp.End > curE {
			curE = sp.End
		}
	}
	flush()
	a.union = float64(union) / nsPerS
	a.coreSelf = float64(root.dur()-covered) / nsPerS
	a.coreResid = a.discover - a.coreSelf - a.union

	// Pair server-seam calls with the client-seam call that carries the
	// same request and encloses it in time; the oldest open one wins.
	open := map[callKey][]*span{}
	for _, sp := range client {
		open[sp.key] = append(open[sp.key], sp)
	}
	paired := map[int64]bool{}
	for _, sv := range server {
		a.handle += float64(sv.dur()) / nsPerS
		cands := open[sv.key]
		for i, cl := range cands {
			if cl.Start <= sv.Start && sv.End <= cl.End {
				sv.Parent = cl.ID
				paired[cl.ID] = true
				a.overhead += float64(cl.dur()-sv.dur()) / nsPerS
				open[sv.key] = append(cands[:i:i], cands[i+1:]...)
				break
			}
		}
	}
	if len(server) > 0 {
		a.tResid = a.clientCall - a.handle - a.overhead
	}

	seams := append(append([]*span(nil), client...), server...)
	byStart(seams)
	for _, sp := range inner {
		i := sort.Search(len(seams), func(i int) bool { return seams[i].Start > sp.Start })
		for j := i - 1; j >= 0 && j >= i-16; j-- {
			if seams[j].End >= sp.End {
				sp.Parent = seams[j].ID
				break
			}
		}
		if sp.Parent == 0 {
			sp.Parent = c.discoverSpanID
		}
	}
	return a
}

// perLayer computes the traced metrics. Counts come from the traced cycle
// on dataset 0, so they repeat exactly; times are medians over the traced
// cycles.
func (r *report) perLayer(outDir string) error {
	var traced, plain []*cycle
	for _, c := range r.cycles {
		if c.traced {
			traced = append(traced, c)
		} else {
			plain = append(plain, c)
		}
	}
	first := traced[0]
	acc := make([]accounting, len(traced))
	var shares cpuShares
	for i, c := range traced {
		acc[i] = account(c)
		if err := shares.add(c.profile); err != nil {
			return err
		}
	}
	if err := writeSpans(outDir, r, first); err != nil {
		return err
	}
	med := func(f func(a accounting) float64) []float64 {
		out := make([]float64, len(acc))
		for i, a := range acc {
			out[i] = f(a)
		}
		return out
	}
	count := func(name, unit string, v int64) {
		r.gate(name, unit, []float64{float64(v)})
	}
	timed := func(name string, xs []float64) { r.gate(name, "s", xs) }
	win := first.win

	for m := 0; m < numMethods; m++ {
		count("store.calls."+methodNames[m], "count", win.Calls[m])
	}
	timed("store.client_call_s", med(func(a accounting) float64 { return a.clientCall }))
	count("store.bytes_up", "bytes", win.BytesUp)
	count("store.bytes_down", "bytes", win.BytesDown)
	count("store.reveals", "count", win.Calls[mReveal])
	timed("server.handle_s", med(func(a accounting) float64 { return a.handle }))
	count("server.calls", "count", first.srv.rounds())

	timed("core.self_s", med(func(a accounting) float64 { return a.coreSelf }))
	count("crypto.seals", "count", win.CellsUp)
	count("crypto.opens", "count", win.CellsDown)

	count("oram.path_reads", "count", win.PathReads)
	count("oram.path_writes", "count", win.PathWrites)
	count("oram.path_bytes", "bytes", win.PathBytes)

	var moved int64
	if r.w.protocol == securefd.ProtocolSort {
		moved = win.ArrayCells
	}
	count("obsort.cells_moved", "count", moved)
	count("obsort.comparisons", "count", first.comparisons)

	frames := first.srv.rounds() + first.wireWrites
	count("transport.wire_bytes", "bytes", first.wireBytes)
	count("transport.frames", "count", frames)
	timed("transport.overhead_s", med(func(a accounting) float64 { return a.overhead }))
	perPayload := 0.0
	if first.wireBytes > 0 {
		perPayload = float64(first.wireBytes) / float64(win.BytesUp+win.BytesDown)
	}
	r.gate("transport.wire_per_payload_byte", "ratio", []float64{perPayload})

	count("wal.appends", "count", first.disk.WALAppends)
	count("wal.bytes", "bytes", first.disk.WALBytes)
	count("wal.fsyncs", "count", first.disk.Fsyncs)
	timed("wal.write_s", cycleValues(traced, func(c *cycle) float64 { return float64(c.disk.WriteNS) / nsPerS }))
	timed("wal.fsync_s", cycleValues(traced, func(c *cycle) float64 { return float64(c.disk.FsyncNS) / nsPerS }))
	count("snapshot.bytes", "bytes", first.snapBytes)

	count("repl.ships", "count", first.repl.Ships)
	count("repl.frames", "count", first.repl.Frames)
	count("repl.bytes", "bytes", first.repl.Bytes)
	timed("repl.ship_s", cycleValues(traced, func(c *cycle) float64 { return float64(c.repl.ShipNS) / nsPerS }))

	tracedS := median(cycleValues(traced, func(c *cycle) float64 { return c.discoverS }))
	plainS := median(cycleValues(plain, func(c *cycle) float64 { return c.discoverS }))
	r.gate("trace.overhead_pct", "%", []float64{100 * (tracedS/plainS - 1)})

	r.CPUShares = map[string]float64{}
	for _, cat := range cpuCategories {
		v := shares.share(shares.self, cat)
		r.CPUShares[cat] = v
		r.gate("cpu."+cat, "share", []float64{v})
	}
	for _, cat := range cumCategories {
		v := shares.share(shares.cum, cat)
		r.CPUShares["cum."+cat] = v
		r.gate("cpu.cum."+cat, "share", []float64{v})
	}

	timed("accounting.core_residual_s", med(func(a accounting) float64 { return a.coreResid }))
	timed("accounting.transport_residual_s", med(func(a accounting) float64 { return a.tResid }))
	count("accounting.oram_reads_residual", "count", first.oramReads-win.PathReads)

	if !r.w.tcp {
		r.Absent = append(r.Absent, "transport", "server")
	}
	if !r.w.durable {
		r.Absent = append(r.Absent, "wal", "repl")
	}
	if r.w.protocol == securefd.ProtocolSort {
		r.Absent = append(r.Absent, "oram")
	} else {
		r.Absent = append(r.Absent, "obsort")
	}

	fmt.Printf("workload %s seed %d traced: %d cycles, %d traced; layers not exercised (reported as 0): %v\n",
		r.Workload, r.Seed, r.Cycles, len(traced), r.Absent)
	for _, m := range r.Gated {
		fmt.Printf("  %-34s %14.6g %-6s samples=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	a := acc[0]
	fmt.Printf("  self-time check: core.self_s %.6f + client union %.6f = %.6f vs discover_s %.6f (residual %.3g s)\n",
		a.coreSelf, a.union, a.coreSelf+a.union, a.discover, a.coreResid)
	if r.w.tcp {
		fmt.Printf("  transport check: server.handle_s %.6f + transport.overhead_s %.6f = %.6f vs store.client_call_s %.6f (residual %.3g s)\n",
			a.handle, a.overhead, a.handle+a.overhead, a.clientCall, a.tResid)
	}
	return nil
}

func cycleValues(cs []*cycle, f func(c *cycle) float64) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = f(c)
	}
	return out
}

// writeSpans writes the spans and the CPU profile of one traced Discover,
// replacing the previous run's files for the workload. Spans are rows of
// the listed columns; times are nanoseconds from the start of the cycle.
func writeSpans(dir string, r *report, c *cycle) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rows := make([][]any, len(c.spans))
	for i, sp := range c.spans {
		rows[i] = []any{sp.ID, sp.Parent, sp.Layer, sp.Name, sp.Start, sp.End}
	}
	doc := struct {
		Workload     string   `json:"workload"`
		Seed         int64    `json:"seed"`
		Dataset      int      `json:"dataset"`
		DiscoverSpan int64    `json:"discover_span"`
		Columns      []string `json:"columns"`
		Spans        [][]any  `json:"spans"`
	}{r.Workload, r.Seed, c.input, c.discoverSpanID,
		[]string{"id", "parent", "layer", "name", "start_ns", "end_ns"}, rows}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	base := filepath.Join(dir, r.Workload)
	if err := os.WriteFile(base+".spans.json", b, 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", c.profile, 0o644)
}

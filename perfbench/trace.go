package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// noSpan is the parent of a root span.
const noSpan int32 = -1

// span is one recorded interval around a call into a layer. Times are
// offsets from the tracer's epoch. cpu is the process CPU the span used,
// or -1 for spans recorded from many goroutines at once, where process CPU
// cannot be attributed.
type span struct {
	name       string
	parent     int32
	start, end time.Duration
	cpu        time.Duration
	cpuStart   time.Duration
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a stage span: one the calling goroutine runs to completion
// with nothing else of the run in flight, so its process CPU is its own.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return noSpan
	}
	cpu := processCPU()
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: now, end: -1, cpuStart: cpu})
	return int32(len(t.spans) - 1)
}

// end closes a stage span opened by begin.
func (t *tracer) end(id int32) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.epoch)
	cpu := processCPU()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.end, s.cpu = now, cpu-s.cpuStart
}

// record adds a finished span timed by the caller; safe from any goroutine.
func (t *tracer) record(name string, parent int32, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		name: name, parent: parent,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch), cpu: -1,
	})
}

// stage runs f inside a stage span.
func (t *tracer) stage(name string, parent int32, f func() error) error {
	id := t.begin(name, parent)
	defer t.end(id)
	return f()
}

// spanWire carries a finished span from a child process to its parent.
type spanWire struct {
	Name   string        `json:"name"`
	Parent int32         `json:"parent"`
	Start  time.Duration `json:"start"`
	End    time.Duration `json:"end"`
	CPU    time.Duration `json:"cpu"`
}

// export returns the tracer's epoch and its finished spans.
func (t *tracer) export() (time.Time, []spanWire) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]spanWire, len(t.spans))
	for i, s := range t.spans {
		out[i] = spanWire{Name: s.name, Parent: s.parent, Start: s.start, End: s.end, CPU: s.cpu}
	}
	return t.epoch, out
}

// absorb appends spans a child's tracer exported, moved onto this tracer's
// epoch, with their parents renumbered.
func (t *tracer) absorb(epoch time.Time, spans []spanWire) {
	if t == nil {
		return
	}
	shift := epoch.Sub(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	base := int32(len(t.spans))
	for _, w := range spans {
		s := span{name: w.Name, parent: w.Parent, start: w.Start + shift, end: w.End + shift, cpu: w.CPU}
		if s.parent != noSpan {
			s.parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// cpu is the process CPU a closed stage span used.
func (t *tracer) cpu(id int32) time.Duration {
	if t == nil || id == noSpan {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].cpu
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.end - s.start
		}
	}
	return d
}

// perParent sums the durations of the spans with the given name under each
// parent span, in parent order.
func (t *tracer) perParent(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	at := map[int32]int{}
	for _, s := range t.spans {
		if s.name != name {
			continue
		}
		i, ok := at[s.parent]
		if !ok {
			i = len(out)
			at[s.parent] = i
			out = append(out, 0)
		}
		out[i] += s.end - s.start
	}
	return out
}

// durations lists the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// layerOf maps a span name ("zgrab.dial") to its layer ("zgrab").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// interval is a half-open time range.
type interval struct{ lo, hi time.Duration }

// unionLength is the total length covered by a set of intervals.
func unionLength(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
		} else if iv.hi > cur.hi {
			cur.hi = iv.hi
		}
	}
	return total + cur.hi - cur.lo
}

// layerRow is one line of the self-time table.
type layerRow struct {
	layer     string
	self      time.Duration // summed span self time
	wallShare float64       // exclusive share of the root spans' wall time
	cpu       time.Duration // self CPU of the layer's stage spans
}

// analysis is what report derives from the spans.
type analysis struct {
	self     []time.Duration // per span: duration minus the part its children cover
	rows     []layerRow
	rootWall time.Duration
	rootCPU  time.Duration
	coverage float64
}

// analyse computes self times, the by-layer table and the leaf coverage.
func (t *tracer) analyse() analysis {
	spans := t.spans
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent != noSpan {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	var a analysis
	a.self = make([]time.Duration, len(spans))
	byLayer := map[string]*layerRow{}
	row := func(name string) *layerRow {
		l := layerOf(name)
		if byLayer[l] == nil {
			byLayer[l] = &layerRow{layer: l}
		}
		return byLayer[l]
	}
	var roots, leaves []interval
	for i, s := range spans {
		var covered []interval
		childCPU := time.Duration(0)
		for _, c := range children[i] {
			cs := spans[c]
			covered = append(covered, interval{max(cs.start, s.start), min(cs.end, s.end)})
			if cs.cpu > 0 {
				childCPU += cs.cpu
			}
		}
		a.self[i] = s.end - s.start - unionLength(covered)
		r := row(s.name)
		r.self += a.self[i]
		if s.cpu >= 0 {
			r.cpu += max(s.cpu-childCPU, 0)
		}
		if s.parent == noSpan {
			roots = append(roots, interval{s.start, s.end})
			if s.cpu > 0 {
				a.rootCPU += s.cpu
			}
		}
		if len(children[i]) == 0 {
			leaves = append(leaves, interval{s.start, s.end})
		}
	}
	a.rootWall = unionLength(roots)
	if a.rootWall > 0 {
		a.coverage = float64(unionLength(leaves)) / float64(a.rootWall)
	}
	for l, share := range exclusiveShares(spans) {
		row(l).wallShare = share
	}
	for _, r := range byLayer {
		a.rows = append(a.rows, *r)
	}
	sort.Slice(a.rows, func(i, j int) bool { return a.rows[i].wallShare > a.rows[j].wallShare })
	return a
}

// exclusiveShares splits the wall time the spans cover among layers: each
// instant goes to the spans active then that have no active child, shared
// equally when several run at once. The shares sum to 1.
func exclusiveShares(spans []span) map[string]float64 {
	type event struct {
		at    time.Duration
		id    int32
		start bool
	}
	events := make([]event, 0, 2*len(spans))
	for i, s := range spans {
		events = append(events, event{s.start, int32(i), true}, event{s.end, int32(i), false})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return !events[i].start && events[j].start
	})
	activeKids := make([]int, len(spans))
	active := make([]bool, len(spans))
	exclusive := map[string]int{}
	nExclusive := 0
	setExclusive := func(id int32, on bool) {
		d := 1
		if !on {
			d = -1
		}
		exclusive[layerOf(spans[id].name)] += d
		nExclusive += d
	}
	acc := map[string]float64{}
	var last time.Duration
	for _, e := range events {
		if dt := e.at - last; dt > 0 && nExclusive > 0 {
			for l, n := range exclusive {
				if n > 0 {
					acc[l] += float64(dt) * float64(n) / float64(nExclusive)
				}
			}
		}
		last = e.at
		p := spans[e.id].parent
		if e.start {
			active[e.id] = true
			setExclusive(e.id, true)
			if p != noSpan && active[p] {
				if activeKids[p] == 0 {
					setExclusive(p, false)
				}
				activeKids[p]++
			}
			continue
		}
		if activeKids[e.id] == 0 {
			setExclusive(e.id, false)
		}
		active[e.id] = false
		if p != noSpan && active[p] && activeKids[p] > 0 {
			activeKids[p]--
			if activeKids[p] == 0 {
				setExclusive(p, true)
			}
		}
	}
	var total float64
	for _, d := range acc {
		total += d
	}
	shares := map[string]float64{}
	for l, d := range acc {
		if total > 0 {
			shares[l] = d / total
		}
	}
	return shares
}

// spanRecord is one line of the spans file.
type spanRecord struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	EndUs   int64  `json:"end_us"`
	SelfUs  int64  `json:"self_us"`
	CPUUs   int64  `json:"cpu_us"`
}

// report writes the spans file, prints the self-time table by layer with
// the trace health metrics next to it, and stores trace.coverage_frac.
func (t *tracer) report(path string, values map[string]float64, w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.analyse()
	values["trace.coverage_frac"] = a.coverage
	if err := t.writeSpans(path, a.self); err != nil {
		return err
	}
	fmt.Fprintf(w, "trace: %d spans written to %s\n", len(t.spans), path)
	fmt.Fprintf(w, "%-12s %10s %10s %10s %10s\n", "layer", "self_s", "wall_share", "cpu_s", "cpu_share")
	for _, r := range a.rows {
		cpuShare := 0.0
		if a.rootCPU > 0 {
			cpuShare = float64(r.cpu) / float64(a.rootCPU)
		}
		fmt.Fprintf(w, "%-12s %10.3f %10.4f %10.3f %10.4f\n",
			r.layer, r.self.Seconds(), r.wallShare, r.cpu.Seconds(), cpuShare)
	}
	fmt.Fprintf(w, "root wall %.3fs, root cpu %.3fs, trace.overhead_frac %.4f, trace.coverage_frac %.4f\n",
		a.rootWall.Seconds(), a.rootCPU.Seconds(), values["trace.overhead_frac"], a.coverage)
	return nil
}

// writeSpans writes one JSON line per span.
func (t *tracer) writeSpans(path string, self []time.Duration) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i, s := range t.spans {
		cpu := int64(-1)
		if s.cpu >= 0 {
			cpu = s.cpu.Microseconds()
		}
		if err := enc.Encode(spanRecord{
			ID: int32(i), Parent: s.parent, Name: s.name,
			StartUs: s.start.Microseconds(), EndUs: s.end.Microseconds(),
			SelfUs: self[i].Microseconds(), CPUUs: cpu,
		}); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// runner carries one workload run's configuration, tracer and tallies.
type runner struct {
	cfg config
	// tmp is the run's private temporary directory, removed at exit.
	tmp string
	// tr is nil unless the run is traced.
	tr     *tracer
	values map[string]float64
	// attempted and failed count the run's operations; a failed one erred
	// or produced output that differs from its reference. mu guards them
	// for workloads that check from several goroutines.
	mu                sync.Mutex
	attempted, failed int
	log               io.Writer
}

func newRunner(cfg config, tmp string, log io.Writer) *runner {
	r := &runner{cfg: cfg, tmp: tmp, values: map[string]float64{}, log: log}
	if cfg.trace {
		r.tr = newTracer()
	}
	return r
}

func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(r.log, r.cfg.workload+": "+format+"\n", args...)
}

// check counts one operation, failed unless ok.
func (r *runner) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		r.logf("FAILED: "+format, args...)
	}
}

// seconds is the configured measuring time.
func (r *runner) seconds() time.Duration {
	return time.Duration(r.cfg.seconds * float64(time.Second))
}

// reference returns want, or a corrupted copy when the run is asked to prove
// that wrong outputs are counted.
func (r *runner) reference(want string) string {
	if r.cfg.corruptReference {
		return "corrupt-" + want
	}
	return want
}

// medianOf is the median of xs (0 for none).
func medianOf(xs []float64) float64 {
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

// percentileMs is the nearest-rank q-quantile (0 < q <= 1) of ds, in
// milliseconds (0 for none).
func percentileMs(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	idx = min(max(idx, 0), len(s)-1)
	return float64(s[idx]) / float64(time.Millisecond)
}

// quartiles returns the first and third quartile of xs by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), the method the bound
// checks use. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return medianOf(s), medianOf(s)
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// secondsOf converts durations to float seconds.
func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

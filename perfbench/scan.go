package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"aliaslimit/internal/experiments"
	"aliaslimit/internal/resolver"
)

// runScanX10 is the scan-x10 workload: the megascale-x10 world at its quick
// scale, collected in RAM and resolved by the batch backend. One operation
// is the pipeline after the world is built — Advance (both measurement
// campaigns and sealing), the scenario scorecard, and a cold RenderAll of
// every table and figure. Building the world is its set-up.
func runScanX10(r *runner) error { return r.runScan("batch", false) }

// runStreamX10 is the stream-x10 workload: the same world, seed and
// scorecard through out-of-core collection and the streaming backend.
func runStreamX10(r *runner) error { return r.runScan("streaming", true) }

// pipelineOp is one measured world pipeline.
type pipelineOp struct {
	setup, wall, cpu time.Duration
	card             scorecard
	tables           [sha256.Size]byte
	// peakMiB is the peak resident set of the operation's process.
	peakMiB float64
	traced  bool
	err     error
}

// runScan measures world pipelines until the run's time is up, each in a
// fresh child process (see pipeline.go), so that every operation starts
// from the same clean heap. A traced run alternates untraced and traced
// operations, so the tracing overhead is measured on the same world, and
// runs the leaf passes after its first traced operation.
func (r *runner) runScan(backend string, stream bool) error {
	var ops []pipelineOp
	start := time.Now()
	for len(ops) == 0 || time.Since(start) < r.seconds() || (r.tr != nil && len(ops) < 2) {
		traced := r.tr != nil && len(ops)%2 == 1
		op, err := r.runPipeline(len(ops), backend, stream, traced, traced && len(ops) == 1)
		if err != nil {
			return err
		}
		ops = append(ops, op)
	}
	want, err := r.scenarioDigest()
	if err != nil {
		return fmt.Errorf("reference scenario run: %w", err)
	}
	var setups, walls, cpuPerObs, obsPerS, peaks, tracedWalls, plainWalls []float64
	for i, op := range ops {
		r.check(op.err == nil && op.card.digest == want && op.tables == ops[0].tables,
			"op %d: err %v, digest %.12s want %.12s, tables equal to op 0: %v",
			i, op.err, op.card.digest, want, op.tables == ops[0].tables)
		setups = append(setups, op.setup.Seconds())
		if op.err != nil {
			continue
		}
		walls = append(walls, op.wall.Seconds())
		cpuPerObs = append(cpuPerObs, op.cpu.Seconds()/float64(op.card.identified))
		obsPerS = append(obsPerS, float64(op.card.identified)/op.wall.Seconds())
		peaks = append(peaks, op.peakMiB)
		if op.traced {
			tracedWalls = append(tracedWalls, op.wall.Seconds())
		} else {
			plainWalls = append(plainWalls, op.wall.Seconds())
		}
	}
	r.logf("%d ops, pipelines %.3f s, cpu %.6f s/obs, peak rss %.1f MiB, %d identified addresses, digest %.12s",
		len(ops), walls, cpuPerObs, peaks, ops[0].card.identified, want)
	v := r.values
	v["setup_s"] = medianOf(setups)
	v["op_p50_ms"] = medianOf(walls) * 1e3
	v["cpu_us_per_obs"] = medianOf(cpuPerObs) * 1e6
	v["obs_per_s"] = medianOf(obsPerS)
	v["peak_rss_mib"] = medianOf(peaks)
	if r.tr != nil {
		v["trace.overhead_frac"] = medianOf(tracedWalls)/medianOf(plainWalls) - 1
		for _, name := range []string{"topo.build", "experiments.advance", "experiments.render_all",
			"scenario.digest", "evaluate.pairwise", "midar.verify"} {
			v[name+"_s"] = medianOf(secondsOf(r.tr.durations(name)))
		}
	}
	return nil
}

// pipeline builds a fresh world (the set-up) and measures one pipeline over
// it. leaf, when set, runs on the measured epoch before it is released.
// A failure inside the measured part is returned in the op, so it counts
// against the run instead of aborting it.
func (r *runner) pipeline(backendName string, stream, traced bool, leaf func(*experiments.Epoch) error) (pipelineOp, error) {
	op := pipelineOp{traced: traced}
	var tr *tracer
	if traced {
		tr = r.tr
	}
	backend, err := resolver.New(backendName, 0)
	if err != nil {
		return op, err
	}
	opts, err := r.worldOptions(backend, stream)
	if err != nil {
		return op, err
	}
	var series *experiments.EnvSeries
	t0 := time.Now()
	err = tr.stage("topo.build", noSpan, func() (err error) {
		series, err = experiments.NewEnvSeries(experiments.SeriesOptions{Options: opts, Epochs: 1})
		return err
	})
	op.setup = time.Since(t0)
	if err != nil {
		return op, fmt.Errorf("building world: %w", err)
	}
	defer series.Close()

	root := tr.begin("bench.op", noSpan)
	c0, t1 := processCPU(), time.Now()
	var ep *experiments.Epoch
	op.err = tr.stage("experiments.advance", root, func() (err error) {
		ep, err = series.Advance()
		return err
	})
	if op.err != nil {
		tr.end(root)
		return op, nil
	}
	op.card = score(tr, ep, root)
	var tables string
	tr.stage("experiments.render_all", root, func() error {
		tables = ep.Env.RenderAll()
		return nil
	})
	op.wall, op.cpu = time.Since(t1), processCPU()-c0
	tr.end(root)
	op.tables = sha256.Sum256([]byte(tables))
	if leaf != nil {
		if err := leaf(ep); err != nil {
			return op, fmt.Errorf("leaf passes: %w", err)
		}
	}
	op.err = ep.Env.Close()
	return op, nil
}

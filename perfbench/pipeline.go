package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"time"

	"aliaslimit/internal/experiments"
)

// The scan workloads run each operation, world build included, in a child
// process (see child.go). A simulated scan leaves its connections referenced
// by their deadline timers for minutes, so operations run one after another
// in one process would each carry the heap of the ones before: the world
// build, the peak resident set and every garbage collection would grow with
// the number of operations that fit into a run. In a child, every operation
// starts from the same clean heap.

// pipelineEnv turns this binary into a pipeline child; its value is the
// JSON pipelineSpec.
const pipelineEnv = "PERFBENCH_PIPELINE"

// pipelineOutFile is the child's output inside its directory.
const pipelineOutFile = "op.json"

// pipelineSpec is the operation a child runs.
type pipelineSpec struct {
	Dir     string  `json:"dir"`
	Seed    uint64  `json:"seed"`
	Scale   float64 `json:"scale"`
	Backend string  `json:"backend"`
	Stream  bool    `json:"stream"`
	// Traced records the operation's spans; Leaf also runs the leaf passes.
	Traced bool `json:"traced"`
	Leaf   bool `json:"leaf"`
}

// pipelineOut is what the child measured.
type pipelineOut struct {
	Setup      time.Duration     `json:"setup"`
	Wall       time.Duration     `json:"wall"`
	CPU        time.Duration     `json:"cpu"`
	Digest     string            `json:"digest"`
	Identified int               `json:"identified"`
	Tables     [sha256.Size]byte `json:"tables"`
	PeakMiB    float64           `json:"peak_mib"`
	// Err is the measured part's failure, if any.
	Err string `json:"err,omitempty"`
	// Epoch and Spans are the traced operation's spans; Values are the leaf
	// passes' per-layer metrics.
	Epoch  time.Time          `json:"epoch"`
	Spans  []spanWire         `json:"spans,omitempty"`
	Values map[string]float64 `json:"values,omitempty"`
}

// runPipelineChild is the pipeline child's body.
func runPipelineChild(spec pipelineSpec) error {
	cfg := config{seed: spec.Seed, scale: spec.Scale, trace: spec.Traced}
	r := newRunner(cfg, spec.Dir, os.Stderr)
	var leaf func(*experiments.Epoch) error
	if spec.Leaf {
		leaf = func(ep *experiments.Epoch) error { return r.leafPasses(ep, spec.Stream) }
	}
	rss := startRSSSampler()
	op, err := r.pipeline(spec.Backend, spec.Stream, spec.Traced, leaf)
	peak := rss.lap(false)
	rss.close()
	if err != nil {
		return err
	}
	out := pipelineOut{
		Setup: op.setup, Wall: op.wall, CPU: op.cpu,
		Digest: op.card.digest, Identified: op.card.identified, Tables: op.tables,
		PeakMiB: peak, Values: r.values,
	}
	if op.err != nil {
		out.Err = op.err.Error()
	}
	if r.tr != nil {
		out.Epoch, out.Spans = r.tr.export()
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(spec.Dir, pipelineOutFile), data, 0o644)
}

// runPipeline runs operation i in a child process and takes over its spans
// and per-layer metrics.
func (r *runner) runPipeline(i int, backend string, stream, traced, leaf bool) (pipelineOp, error) {
	op := pipelineOp{traced: traced}
	dir := filepath.Join(r.tmp, fmt.Sprintf("op-%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return op, err
	}
	defer os.RemoveAll(dir)
	spec := pipelineSpec{Dir: dir, Seed: r.cfg.seed, Scale: r.cfg.scale,
		Backend: backend, Stream: stream, Traced: traced, Leaf: leaf}
	if err := r.runChild(pipelineEnv, spec); err != nil {
		return op, fmt.Errorf("operation %d: %w", i, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, pipelineOutFile))
	if err != nil {
		return op, err
	}
	var out pipelineOut
	if err := json.Unmarshal(data, &out); err != nil {
		return op, err
	}
	op.setup, op.wall, op.cpu = out.Setup, out.Wall, out.CPU
	op.card = scorecard{digest: out.Digest, identified: out.Identified}
	op.tables, op.peakMiB = out.Tables, out.PeakMiB
	if out.Err != "" {
		op.err = errors.New(out.Err)
	}
	r.tr.absorb(out.Epoch, out.Spans)
	maps.Copy(r.values, out.Values)
	return op, nil
}

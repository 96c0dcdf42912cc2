// Command perfbench is the repository's end-to-end benchmark. It drives one
// named workload through the library's public calls, checks every output
// against a reference computed independently, and prints one JSON result
// line:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.41, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end metrics a user of the system
// sees; with -trace 1 the run records spans around the calls into each
// layer, prints a self-time table by layer on standard error, writes the
// spans to a file, and reports the per-layer metrics instead. The catalog
// below and BENCHMARK.json at the repository root name the same metrics.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh -workload scan-x10 -seed 1 -seconds 15 -trace 0
//	bash perfbench/run.sh -steady 10 -seconds 15
//
// The second form is the steadiness report: it runs every workload once per
// seed in a child process and prints each metric's median, quartiles and
// sample count.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"aliaslimit/internal/aliasd"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names one catalog metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports every
// one of them, each for the workload's own unit operation (see the workload
// docs): a world pipeline for the scan workloads, a pass over every resolver
// backend for replay-resolve, an ingest request for aliasd-openloop.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"cpu_us_per_obs", "us"},
	{"obs_per_s", "obs/s"},
	{"peak_rss_mib", "MiB"},
}

// backendNames are the resolver backends replay-resolve measures and the
// per-layer resolver metrics are named after: every backend resolver.Names()
// lists, in its order (a test keeps the two in step).
var backendNames = []string{"batch", "streaming", "sharded", "distributed"}

// perLayer are the metrics of a traced run, named by module. A workload that
// does not exercise a layer reports 0 for it.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"topo.build_s", "s"},
		{"zmaplite.sweep_s", "s"},
		{"zmaplite.probes", "count"},
		{"zmaplite.open_ratio", "ratio"},
		{"zgrab.dial_s", "s"},
		{"zgrab.grabs", "count"},
		{"zgrab.ok_ratio", "ratio"},
		{"sshwire.handshakes", "count"},
		{"sshwire.handshake_ms_p50", "ms"},
		{"sshwire.cpu_us_per_handshake", "us"},
		{"bgp.opens", "count"},
		{"bgp.cpu_us_per_open", "us"},
		{"snmpv3.discover_s", "s"},
		{"snmpv3.engine_ids", "count"},
		{"ident.extract_s", "s"},
		{"ident.ids", "count"},
		{"ident.yield", "ratio"},
		{"experiments.advance_s", "s"},
		{"experiments.render_all_s", "s"},
		{"scenario.digest_s", "s"},
		{"evaluate.pairwise_s", "s"},
		{"midar.verify_s", "s"},
		{"obslog.append_s", "s"},
		{"obslog.fold_s", "s"},
		{"obslog.bytes", "bytes"},
		{"obslog.read_s", "s"},
	}
	for _, b := range backendNames {
		defs = append(defs,
			metricDef{"resolver." + b + ".observe_s", "s"},
			metricDef{"resolver." + b + ".sets_s", "s"},
			metricDef{"resolver." + b + ".merged_s", "s"})
	}
	return append(defs,
		metricDef{"distres.spawn_s", "s"},
		metricDef{"obsfile.decode_us_per_obs", "us"},
		metricDef{"aliasd.ingest_p50_ms", "ms"},
		metricDef{"aliasd.ingest_p99_ms", "ms"},
		metricDef{"aliasd.query_p50_ms", "ms"},
		metricDef{"aliasd.query_p99_ms", "ms"},
		metricDef{"aliasd.sustained_obs_per_s", "obs/s"},
		metricDef{"aliasd.backlog_obs_max", "obs"},
		metricDef{"aliasd.drain_ms", "ms"},
		metricDef{"aliasd.refused_429", "count"},
		metricDef{"bench.gen_lag_ms_p99", "ms"},
		metricDef{"trace.overhead_frac", "ratio"},
		metricDef{"trace.coverage_frac", "ratio"},
	)
}()

// workload is one named input set and the code that drives it. BENCHMARK.json
// records why each one is in the catalog.
type workload struct {
	name string
	run  func(r *runner) error
}

// workloads is the benchmark's catalog, in report order.
var workloads = []workload{
	{"scan-x10", runScanX10},
	{"stream-x10", runStreamX10},
	{"replay-resolve", runReplayResolve},
	{"aliasd-openloop", runAliasdOpenLoop},
}

// lookupWorkload finds a workload by name.
func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// workloadNames lists the catalog's names.
func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// scale overrides the world scale; 0 keeps megascale-x10's quick scale.
	scale float64
	// dir holds the run's temporary files and its spans file.
	dir string
	// corruptReference flips the reference digests, so every check fails:
	// the tests use it to prove that a wrong output is counted.
	corruptReference bool
}

var errUsage = errors.New("usage")

func main() {
	// The distributed backend re-executes this binary as a shard worker, and
	// the workloads as their corpus collector or pipeline operation.
	aliasd.RunWorkerIfRequested()
	runChildIfRequested()
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errUsage) {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
		os.Exit(1)
	}
}

// run parses the command line and executes one workload run or the
// steadiness report.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "world seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 15, "how long the measured part runs")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	scale := fs.Float64("scale", 0, "world scale override (0 keeps megascale-x10's quick scale)")
	dir := fs.String("dir", ".bench_build/run", "directory for temporary files and spans")
	steady := fs.Int("steady", 0, "steadiness report: run every workload once per seed 1..N")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return errUsage
	}
	if *steady > 0 {
		return steadinessReport(*steady, *seconds, *scale, stdout, stderr)
	}
	if _, ok := lookupWorkload(*name); !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return errUsage
	}
	cfg := config{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		scale:    *scale,
		dir:      *dir,
	}
	res, err := execute(cfg, stderr)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// execute runs one workload and assembles its result.
func execute(cfg config, stderr io.Writer) (*result, error) {
	w, _ := lookupWorkload(cfg.workload)
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.dir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	// Collection spills and obslog directories the library creates under
	// the system temporary directory land in this run's directory instead.
	defer os.Setenv("TMPDIR", os.Getenv("TMPDIR"))
	if err := os.Setenv("TMPDIR", tmp); err != nil {
		return nil, err
	}
	r := newRunner(cfg, tmp, stderr)
	if err := w.run(r); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		path := filepath.Join(cfg.dir, fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, cfg.seed))
		if err := r.tr.report(path, r.values, stderr); err != nil {
			return nil, err
		}
	}
	res := &result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s measured no finite %s", w.name, d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("%s attempted no operation", w.name)
	}
	return res, nil
}

package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strconv"
	"testing"

	"aliaslimit/internal/aliasd"
	"aliaslimit/internal/resolver"
)

// TestMain lets the distributed backend and the workloads re-execute the
// test binary as a shard worker, corpus collector or pipeline operation.
func TestMain(m *testing.M) {
	aliasd.RunWorkerIfRequested()
	runChildIfRequested()
	os.Exit(m.Run())
}

// tinyScale keeps smoke runs to seconds: a world a twenty-fifth the size of
// megascale-x10's quick scale.
const tinyScale = 0.02

// fileMetric is one metric entry of BENCHMARK.json.
type fileMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile is the part of BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []fileMetric `json:"end_to_end"`
	PerLayer []fileMetric `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// smokeSeconds is a smoke run's measuring time: long enough for every
// aliasd-openloop block to send queries at the query stream's fixed rate.
const smokeSeconds = "2"

// smokeRun runs one tiny workload through the command line and parses the
// result line.
func smokeRun(t *testing.T, workload string, trace int) *result {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"-workload", workload, "-seed", "3", "-seconds", smokeSeconds,
		"-trace", strconv.Itoa(trace), "-scale", strconv.FormatFloat(tinyScale, 'g', -1, 64), "-dir", t.TempDir()}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("%s trace %d: %v\n%s", workload, trace, err, errOut.String())
	}
	res, err := lastResult(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mayReadZero are the per-layer metrics that read 0 on every workload of a
// healthy smoke run: no request refused, no backlog seen at the tiny scale's
// low rates.
var mayReadZero = map[string]bool{
	"aliasd.refused_429":     true,
	"aliasd.backlog_obs_max": true,
}

// TestSmokeEveryMetricPrinted runs every workload of BENCHMARK.json at a tiny
// scale, untraced and traced, and requires a correct run that prints exactly
// the metrics BENCHMARK.json names, each with its unit; the end-to-end ones
// must be positive, and every per-layer one but those in mayReadZero nonzero
// on at least one workload, so a misspelt span name or a metric no workload
// sets any more does not pass as a measured 0.
func TestSmokeEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and measures worlds")
	}
	bf := readBenchmarkFile(t)
	measured := map[string]bool{}
	for _, w := range bf.Workloads {
		for trace, defs := range [][]fileMetric{bf.EndToEnd, bf.PerLayer} {
			res := smokeRun(t, w.Name, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v, %d of %d failed", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: metric %s missing", w.Name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace %d: metric %s unit %q, want %q", w.Name, trace, d.Name, m.Unit, d.Unit)
				case trace == 0 && !(m.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want positive", w.Name, d.Name, m.Value)
				case trace == 1 && m.Value != 0:
					measured[d.Name] = true
				}
			}
		}
	}
	for _, d := range bf.PerLayer {
		if !measured[d.Name] && !mayReadZero[d.Name] {
			t.Errorf("per-layer metric %s reads 0 on every workload", d.Name)
		}
	}
}

// TestWrongDigestCounted corrupts every reference digest and requires each
// workload to report the mismatches as failed operations instead of
// aborting.
func TestWrongDigestCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and measures worlds")
	}
	for _, w := range workloads {
		cfg := config{workload: w.name, seed: 3, seconds: 0.2, scale: tinyScale,
			dir: t.TempDir(), corruptReference: true}
		res, err := execute(cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
			t.Errorf("%s with a wrong reference: correct %v, %d of %d failed", w.name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestCatalogMatchesBenchmarkFile keeps the program's workloads and metric
// catalogs in step with BENCHMARK.json.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); !equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", got, want)
	}
	if got := resolver.Names(); !equal(got, backendNames) {
		t.Errorf("the library's resolver backends are %v, the benchmark measures %v", got, backendNames)
	}
	for _, c := range []struct {
		file []fileMetric
		prog []metricDef
	}{{bf.EndToEnd, endToEnd}, {bf.PerLayer, perLayer}} {
		if len(c.file) != len(c.prog) {
			t.Fatalf("BENCHMARK.json names %d metrics, program %d", len(c.file), len(c.prog))
		}
		for i := range c.file {
			if c.file[i].Name != c.prog[i].name || c.file[i].Unit != c.prog[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %v, program %v", i, c.file[i], c.prog[i])
			}
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// the method the bound checks use.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestSelfTimeAndShares checks the span analysis on a hand-built trace: a
// root of 10 with two overlapping children covering [2,6) and a leaf.
func TestSelfTimeAndShares(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "bench.op", parent: noSpan, start: 0, end: 10, cpu: 10},
		{name: "zgrab.dial", parent: 0, start: 2, end: 5, cpu: -1},
		{name: "sshwire.handshake", parent: 0, start: 4, end: 6, cpu: -1},
	}}
	a := tr.analyse()
	if a.self[0] != 6 || a.self[1] != 3 || a.self[2] != 2 {
		t.Errorf("self times %v, want [6 3 2]", a.self)
	}
	if a.coverage != 0.4 {
		t.Errorf("coverage %v, want 0.4", a.coverage)
	}
	shares := exclusiveShares(tr.spans)
	// [0,2) and [6,10) bench; [2,4) dial; [4,5) split; [5,6) handshake.
	want := map[string]float64{"bench": 0.6, "zgrab": 0.25, "sshwire": 0.15}
	for l, w := range want {
		if shares[l] < w-1e-9 || shares[l] > w+1e-9 {
			t.Errorf("share of %s = %v, want %v", l, shares[l], w)
		}
	}
}

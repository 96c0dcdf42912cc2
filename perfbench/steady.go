package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// steadinessReport runs each workload once per seed 1..n, each run in a
// child process as the benchmark is run for real, and prints every
// end-to-end metric's median, quartiles, sample count and spread (the
// quartile distance over the median, the figure each metric's bound in
// BENCHMARK.json is set against).
func steadinessReport(n int, seconds, scale float64, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-16s %-16s %3s %14s %14s %14s %8s\n", "workload", "metric", "n", "median", "q1", "q3", "spread")
	for _, name := range workloadNames() {
		values := map[string][]float64{}
		failed := 0
		for seed := 1; seed <= n; seed++ {
			args := []string{"-workload", name, "-seed", strconv.Itoa(seed),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0"}
			if scale > 0 {
				args = append(args, "-scale", strconv.FormatFloat(scale, 'g', -1, 64))
			}
			var out, errOut bytes.Buffer
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = &out, &errOut
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %v\n%s", name, seed, err, errOut.String())
			}
			res, err := lastResult(out.Bytes())
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			failed += res.Failed
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
			}
			fmt.Fprintf(stderr, "steady: %s seed %d: %d/%d failed", name, seed, res.Failed, res.Attempted)
			for _, d := range endToEnd {
				fmt.Fprintf(stderr, " %s=%.4g", d.name, res.Metrics[d.name].Value)
			}
			fmt.Fprintln(stderr)
		}
		for _, d := range endToEnd {
			xs := values[d.name]
			med := medianOf(xs)
			q1, q3 := quartiles(xs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Fprintf(stdout, "%-16s %-16s %3d %14.4f %14.4f %14.4f %8.4f\n", name, d.name, len(xs), med, q1, q3, spread)
		}
		fmt.Fprintf(stdout, "%-16s %-16s %3d %14d\n", name, "failed_ops", n, failed)
	}
	return nil
}

// lastResult parses the result object on the last line of a run's output.
func lastResult(out []byte) (*result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("parsing result line: %w", err)
	}
	return &res, nil
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
)

// Some of the work of a run happens in child processes of this same binary,
// so that it starts from a clean heap: the corpus workloads collect their
// corpus in one (corpus.go), and the scan workloads run each operation in
// one (pipeline.go). The parent passes a JSON spec in an environment
// variable; the child does the work, writes its outputs to files the spec
// names, and exits.

// runChildIfRequested turns this binary into a child and exits when one of
// the child variables is set, and returns otherwise. main and the tests'
// TestMain call it first.
func runChildIfRequested() {
	serveChild(corpusEnv, collectCorpus)
	serveChild(pipelineEnv, runPipelineChild)
}

// serveChild runs body on the spec in env, if set, and exits.
func serveChild[S any](env string, body func(S) error) {
	raw := os.Getenv(env)
	if raw == "" {
		return
	}
	var spec S
	err := json.Unmarshal([]byte(raw), &spec)
	if err == nil {
		err = body(spec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child %s: %v\n", env, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// runChild runs this binary as the child env selects, with spec, and waits
// for it to end. The child's standard error goes to the run's log.
func (r *runner) runChild(env string, spec any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	data, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), env+"="+string(data))
	cmd.Stderr = r.log
	return cmd.Run()
}

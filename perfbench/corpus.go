package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/experiments"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/obsfile"
	"aliaslimit/internal/obslog"
	"aliaslimit/internal/resolver"
	"aliaslimit/internal/scenario"
)

// The corpus workloads (replay-resolve, aliasd-openloop) start their set-up
// by collecting the x10 corpus in a child process (see child.go): the
// collector measures the world with the batch backend, writes every
// observation to an obslog epoch
// and the scored corpus to an NDJSON file, and computes the reference digests
// from the observations it holds in memory. Collection in a child keeps the
// measuring process's heap free of the simulated world, whose connections
// stay referenced by their deadline timers for minutes after a scan; the
// measured part then pays only for its own memory and garbage collection.

// setupRounds is how often the corpus workloads set up in one run; the run
// reports the median set-up time and keeps the last set-up.
const setupRounds = 3

// corpusEnv turns this binary into the corpus collector; its value is the
// JSON corpusSpec.
const corpusEnv = "PERFBENCH_CORPUS"

// The collector's outputs inside its directory.
const (
	corpusLog     = "log"           // obslog run holding one committed epoch
	corpusLines   = "corpus.ndjson" // the scored corpus as obsfile records
	corpusDigests = "digests.json"  // corpusRefs
)

// corpusSpec is what the collector collects, and where it writes.
type corpusSpec struct {
	Dir   string  `json:"dir"`
	Seed  uint64  `json:"seed"`
	Scale float64 `json:"scale"`
}

// corpusRefs are the reference digests the collector computes.
type corpusRefs struct {
	// Replay is replayDigest over alias.GroupSorted per protocol of every
	// logged observation and alias.Merge of those groups.
	Replay string `json:"replay"`
	// Scored is the batch backend's scorecard digest (DigestPartitions of
	// ScoredPartitions) over the scored corpus.
	Scored string `json:"scored"`
}

// collectCorpus is the collector's body.
func collectCorpus(spec corpusSpec) error {
	r := &runner{cfg: config{seed: spec.Seed, scale: spec.Scale}}
	opts, err := r.worldOptions(resolver.NewBatch(), false)
	if err != nil {
		return err
	}
	env, err := experiments.BuildEnv(opts)
	if err != nil {
		return err
	}
	defer env.Close()

	w, err := obslog.Create(filepath.Join(spec.Dir, corpusLog),
		obslog.RunMeta{Scenario: presetName, Seed: spec.Seed, Scale: opts.Topo.Scale, Epochs: 1},
		obslog.Options{Sync: obslog.SyncNever})
	if err != nil {
		return err
	}
	var groups [][]alias.Set
	for _, p := range protocols {
		for _, o := range env.Active.Obs[p] {
			w.Observe(obslog.SourceActive, p, o)
		}
		for _, o := range env.Censys.Obs[p] {
			w.Observe(obslog.SourceCensys, p, o)
		}
		all := append(append([]alias.Observation(nil), env.Active.Obs[p]...), env.Censys.Obs[p]...)
		groups = append(groups, alias.GroupSorted(all))
	}
	err = w.CompleteEpoch(0, "", 0)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing the corpus epoch: %w", err)
	}

	var lines bytes.Buffer
	for _, p := range protocols {
		ds := env.Both
		if p == ident.SNMP {
			ds = env.Active
		}
		for _, o := range ds.Obs[p] {
			line, err := json.Marshal(obsfile.Record{Addr: o.Addr.String(), Proto: p.String(), Digest: o.ID.Digest})
			if err != nil {
				return err
			}
			lines.Write(append(line, '\n'))
		}
	}
	if err := os.WriteFile(filepath.Join(spec.Dir, corpusLines), lines.Bytes(), 0o644); err != nil {
		return err
	}
	refs := corpusRefs{Replay: replayDigest(append(groups, alias.Merge(groups...)))}
	refs.Scored, _ = scenario.DigestPartitions(scenario.ScoredPartitions(env))
	data, err := json.Marshal(refs)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(spec.Dir, corpusDigests), data, 0o644)
}

// runCorpus collects the corpus into dir in a child process and returns the
// reference digests.
func (r *runner) runCorpus(dir string) (corpusRefs, error) {
	var refs corpusRefs
	err := r.runChild(corpusEnv, corpusSpec{Dir: dir, Seed: r.cfg.seed, Scale: r.cfg.scale})
	if err != nil {
		return refs, fmt.Errorf("corpus collector: %w", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, corpusDigests))
	if err != nil {
		return refs, err
	}
	err = json.Unmarshal(data, &refs)
	return refs, err
}

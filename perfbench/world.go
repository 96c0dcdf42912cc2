package main

import (
	"fmt"
	"net/netip"

	"aliaslimit/internal/evaluate"
	"aliaslimit/internal/experiments"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/midar"
	"aliaslimit/internal/resolver"
	"aliaslimit/internal/scenario"
	"aliaslimit/internal/topo"
)

// presetName is the world every workload measures or draws its corpus from.
const presetName = "megascale-x10"

// midarSample is the MIDAR verification sample a quick scorecard draws.
const midarSample = 15

// protocols is the scorecard's protocol order.
var protocols = []ident.Protocol{ident.SSH, ident.BGP, ident.SNMP}

// worldOptions returns the experiments options cmd/scenarios uses for the
// preset at the run's seed and scale: its quick scale unless overridden, the
// preset's tuning and fault policy, and the given backend.
func (r *runner) worldOptions(backend resolver.Backend, stream bool) (experiments.Options, error) {
	p, ok := scenario.Lookup(presetName)
	if !ok {
		return experiments.Options{}, fmt.Errorf("preset %s is not in the catalog", presetName)
	}
	cfg := topo.Default()
	if r.cfg.seed != 0 {
		cfg.Seed = r.cfg.seed
	}
	cfg.Scale = p.QuickScale
	if r.cfg.scale > 0 {
		cfg.Scale = r.cfg.scale
	}
	if p.Tune != nil {
		p.Tune(&cfg)
	}
	faults := p.Faults
	faults.Seed = cfg.Seed
	return experiments.Options{
		Topo:          cfg,
		Scan:          experiments.ScanOptions{Seed: cfg.Seed},
		ChurnFraction: p.Churn,
		Faults:        faults,
		Backend:       backend,
		StreamCollect: stream,
	}, nil
}

// scenarioDigest is the sets digest cmd/scenarios reports for the preset at
// the run's seed and scale, computed through the same library call.
func (r *runner) scenarioDigest() (string, error) {
	opts := scenario.Options{Seed: r.cfg.seed, Quick: true, Scale: r.cfg.scale}
	res, err := scenario.Run(presetName, opts)
	if err != nil {
		return "", err
	}
	return r.reference(res.SetsDigest), nil
}

// scorecard is what the scenario scorer derives from one measured epoch.
type scorecard struct {
	digest string
	// identified counts identifiable observed addresses over the scored
	// datasets, summed over protocols: the pipeline's unit of useful work.
	identified int
}

// score computes the scorecard exactly as cmd/scenarios does for a quick
// run — partitions and their digest, pairwise accuracy against ground truth
// per protocol, and the MIDAR verification tally — with a span around each
// layer's call.
func score(tr *tracer, ep *experiments.Epoch, parent int32) scorecard {
	env := ep.Env
	var sc scorecard
	tr.stage("scenario.digest", parent, func() error {
		sc.digest, _ = scenario.DigestPartitions(scenario.ScoredPartitions(env))
		return nil
	})
	truthFor := map[ident.Protocol]map[string][]netip.Addr{
		ident.SSH:  ep.Truth.SSHAddrs,
		ident.BGP:  ep.Truth.BGPAddrs,
		ident.SNMP: ep.Truth.SNMPAddrs,
	}
	tr.stage("evaluate.pairwise", parent, func() error {
		for _, p := range protocols {
			ds := env.Both
			if p == ident.SNMP {
				ds = env.Active
			}
			evaluate.Pairwise(ds.NonSingletonSets(p), evaluate.OwnerMap(truthFor[p]))
			sc.identified += len(ds.Addrs(p, nil))
		}
		return nil
	})
	tr.stage("midar.verify", parent, func() error {
		env.MIDARRun(midarSample, midar.Config{})
		return nil
	})
	return sc
}

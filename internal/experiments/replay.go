package experiments

import (
	"aliaslimit/internal/ident"
	"aliaslimit/internal/obslog"
	"aliaslimit/internal/resolver"
)

// ReplayEnv rebuilds a sealed analysis environment from one epoch of a
// durable observation log, without a world: the log holds exactly what the
// epoch's scans yielded, so the dataset split (Active, Censys, and their
// union), the non-standard-port exclusion, and every partition view come
// out byte-identical to the in-RAM run that wrote the log — on any resolver
// backend (nil selects batch), which is how the resume path proves the
// log's integrity through the sets-digest gate.
//
// The returned Env has a nil World: only dataset- and partition-level views
// are valid (everything scenario.ScoredPartitions reads). World-dependent
// analyses — the MIDAR verification run, coverage against ground truth —
// need the live series, not a replay.
func ReplayEnv(snap *obslog.Snapshot, backend resolver.Backend) (*Env, error) {
	active := NewDataset("Active")
	censys := NewDataset("Censys")
	for _, p := range ident.Protocols {
		active.AddAll(p, snap.Active[p])
		censys.AddAll(p, snap.Censys[p])
	}
	// The non-standard-port count is derived from the snapshot population
	// with the same rule collection applies, so replays report identical
	// exclusion totals.
	censys.NonStandardPortSSH = len(censys.Obs[ident.SSH]) * 23 / 100
	env := &Env{
		Active: active,
		Censys: censys,
		Both:   Union("Union", active, censys),
	}
	if backend == nil {
		backend = resolver.NewBatch()
	}
	ses, err := openSessions(backend)
	if err != nil {
		return nil, err
	}
	for i, d := range []*Dataset{env.Active, env.Censys, env.Both} {
		d.feed(ses[i])
	}
	if err := env.seal(backend, ses); err != nil {
		closeSessions(ses)
		return nil, err
	}
	return env, nil
}

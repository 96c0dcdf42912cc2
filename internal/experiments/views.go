package experiments

import (
	"fmt"
	"net/netip"
	"sync"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/midar"
	"aliaslimit/internal/resolver"
	"aliaslimit/internal/topo"
)

// This file is the memoized analysis layer. A Dataset is sealed once
// collection completes; from then on every derived view — identifier groups,
// family filters, non-singleton filters, address universes, merged
// partitions — is computed at most once and shared by every table, figure,
// and facade accessor. All views are computed under sync.Once, so concurrent
// artifact generation (Env.RenderAll) is safe and deterministic: the first
// caller computes, everyone else reads.
//
// Returned slices are shared views: callers must treat them as read-only.

// numProto is the number of identifier protocols the views index by.
const numProto = 3

// famIdx maps an address family to its view slot.
func famIdx(v4 bool) int {
	if v4 {
		return 0
	}
	return 1
}

// selIdx maps an Addrs family selector (nil / V4 / V6) to its view slot.
func selIdx(v4 *bool) int {
	switch {
	case v4 == nil:
		return 0
	case *v4:
		return 1
	default:
		return 2
	}
}

// memo is a lazily computed, concurrency-safe cache cell.
type memo[T any] struct {
	once sync.Once
	v    T
}

// get returns the cached value, computing it on first use.
func (m *memo[T]) get(f func() T) T {
	m.once.Do(func() { m.v = f() })
	return m.v
}

// datasetViews caches every per-dataset derivation.
type datasetViews struct {
	groups   [numProto]memo[[]alias.Set]     // Group per protocol
	nsAll    [numProto]memo[[]alias.Set]     // NonSingleton(Group)
	fam      [numProto][2]memo[[]alias.Set]  // FilterFamily(Group)
	famNS    [numProto][2]memo[[]alias.Set]  // NonSingleton(FilterFamily)
	merged   [2]memo[[]alias.Set]            // per-family merge of the three famNS
	mergedNS [2]memo[[]alias.Set]            // NonSingleton(merged)
	addrs    [numProto][3]memo[[]netip.Addr] // per-protocol address universes
	allAddrs [3]memo[[]netip.Addr]           // cross-protocol address universes

	// session is the open resolver session every grouping and merge in this
	// dataset's views routes through. It holds exactly the dataset's
	// observations; sessions are concurrency-safe, so no extra serialisation
	// is needed here.
	session resolver.Session
}

// Seal freezes the dataset for analysis on a fresh batch resolver session
// fed the dataset's observations: mutation panics from here on, and derived
// views are cached. Sealing twice is a no-op.
func (d *Dataset) Seal() {
	if d.views == nil {
		s, _ := resolver.NewBatch().Open(resolver.Options{}) // in-process: never fails
		d.feed(s)
		d.SealWith(s)
	}
}

// SealWith is Seal with an explicit open resolver session that already
// holds the dataset's observations — collection feeds it as the scans run.
// The session choice never changes a single byte of any view — only the
// execution strategy (see internal/resolver).
func (d *Dataset) SealWith(s resolver.Session) {
	if d.views == nil {
		d.views = &datasetViews{session: s}
	}
}

// feed streams the dataset's in-RAM observations into s.
func (d *Dataset) feed(s resolver.Session) {
	for _, p := range ident.Protocols {
		for _, o := range d.Obs[p] {
			s.Observe(o)
		}
	}
}

// Sealed reports whether the dataset has been sealed.
func (d *Dataset) Sealed() bool { return d.views != nil }

// mustBeUnsealed guards the mutating methods.
func (d *Dataset) mustBeUnsealed() {
	if d.views != nil {
		panic("experiments: dataset " + d.Name + " is sealed; collection must complete before analysis")
	}
}

// NonSingletonSets returns the protocol's non-singleton identifier groups
// (both families).
func (d *Dataset) NonSingletonSets(p ident.Protocol) []alias.Set {
	f := func() []alias.Set { return alias.NonSingleton(d.Sets(p)) }
	if v := d.views; v != nil {
		return v.nsAll[p].get(f)
	}
	return f()
}

// FamilySets returns the protocol's identifier groups filtered to one
// address family (all sizes).
func (d *Dataset) FamilySets(p ident.Protocol, v4 bool) []alias.Set {
	f := func() []alias.Set { return alias.FilterFamily(d.Sets(p), v4) }
	if v := d.views; v != nil {
		return v.fam[p][famIdx(v4)].get(f)
	}
	return f()
}

// NonSingletonFamilySets returns the non-singleton subset of FamilySets —
// the unit every per-protocol table cell counts.
func (d *Dataset) NonSingletonFamilySets(p ident.Protocol, v4 bool) []alias.Set {
	f := func() []alias.Set { return alias.NonSingleton(d.FamilySets(p, v4)) }
	if v := d.views; v != nil {
		return v.famNS[p][famIdx(v4)].get(f)
	}
	return f()
}

// MergedFamily returns the dataset's cross-protocol union partition for one
// family: the merge of its three per-protocol non-singleton views.
func (d *Dataset) MergedFamily(v4 bool) []alias.Set {
	f := func() []alias.Set {
		ssh := d.NonSingletonFamilySets(ident.SSH, v4)
		bgpS := d.NonSingletonFamilySets(ident.BGP, v4)
		snmp := d.NonSingletonFamilySets(ident.SNMP, v4)
		if v := d.views; v != nil {
			return v.session.Merged(ssh, bgpS, snmp)
		}
		return alias.Merge(ssh, bgpS, snmp)
	}
	if v := d.views; v != nil {
		return v.merged[famIdx(v4)].get(f)
	}
	return f()
}

// MergedFamilyNonSingleton filters MergedFamily to sets of two or more
// addresses.
func (d *Dataset) MergedFamilyNonSingleton(v4 bool) []alias.Set {
	f := func() []alias.Set { return alias.NonSingleton(d.MergedFamily(v4)) }
	if v := d.views; v != nil {
		return v.mergedNS[famIdx(v4)].get(f)
	}
	return f()
}

// envViews caches the cross-dataset derivations: the canonical union
// partitions (SSH and BGP from the union dataset, SNMPv3 from the active
// scan, as the paper combines them), the all-family dual-stack merge, and
// the MIDAR verification runs.
type envViews struct {
	unionFam   [2]memo[[]alias.Set]
	unionFamNS [2]memo[[]alias.Set]
	dualMerged memo[[]alias.Set]
	dualStack  memo[[]alias.Set]

	mu        sync.Mutex
	midarRuns map[midarKey]*MIDARResult
}

// midarKey identifies one memoized MIDAR verification run.
type midarKey struct {
	sample int
	cfg    midar.Config
}

// MIDARResult is the cached outcome of one MIDAR verification pass.
type MIDARResult struct {
	// Sample is the candidate sets handed to the pipeline.
	Sample []alias.Set
	// Results is the per-set outcome list.
	Results []midar.SetResult
	// Tally aggregates the outcomes.
	Tally midar.Tally
}

// openSessions opens one session per dataset on b — Active, Censys and
// their union, in that order — closing the ones already open if one fails.
func openSessions(b resolver.Backend) ([3]resolver.Session, error) {
	var ses [3]resolver.Session
	for i := range ses {
		s, err := b.Open(resolver.Options{})
		if err != nil {
			closeSessions(ses)
			return ses, fmt.Errorf("experiments: opening resolver session: %w", err)
		}
		ses[i] = s
	}
	return ses, nil
}

// closeSessions closes every open session in ses.
func closeSessions(ses [3]resolver.Session) {
	for _, s := range ses {
		if s != nil {
			s.Close()
		}
	}
}

// seal freezes all three datasets on the sessions that hold their
// observations (see openSessions for the order) and opens the env's own
// session on b for the cross-dataset merges. Each dataset keeps its own
// session, so the concurrent render paths keep the merge parallelism the
// per-dataset tables used to provide.
func (e *Env) seal(b resolver.Backend, ses [3]resolver.Session) error {
	s, err := b.Open(resolver.Options{})
	if err != nil {
		return err
	}
	e.backend, e.session = b, s
	e.Active.SealWith(ses[0])
	e.Censys.SealWith(ses[1])
	e.Both.SealWith(ses[2])
	return nil
}

// Resolver returns the backend the environment's views resolve through.
func (e *Env) Resolver() resolver.Backend { return e.backend }

// Close releases the environment's resolver sessions. For the in-process
// backends this is a no-op; for the distributed backend it deletes the
// remote shard sessions and surfaces any sticky worker failure. Idempotent;
// the analysis views already computed stay readable.
func (e *Env) Close() error {
	var err error
	e.closeOnce.Do(func() {
		for _, s := range []resolver.Session{e.session, e.Active.session(), e.Censys.session(), e.Both.session()} {
			if s == nil {
				continue
			}
			if cerr := s.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		if e.onClose != nil {
			if cerr := e.onClose(); cerr != nil && err == nil {
				err = cerr
			}
		}
	})
	return err
}

// session exposes a dataset's open resolver session, nil before sealing.
func (d *Dataset) session() resolver.Session {
	if d == nil || d.views == nil {
		return nil
	}
	return d.views.session
}

// UnionFamilySets returns the canonical cross-protocol union partition for
// one family: SSH and BGP from the union dataset, SNMPv3 from the active
// scan (its single source), merged.
func (e *Env) UnionFamilySets(v4 bool) []alias.Set {
	return e.views.unionFam[famIdx(v4)].get(func() []alias.Set {
		return e.session.Merged(
			e.Both.NonSingletonFamilySets(ident.SSH, v4),
			e.Both.NonSingletonFamilySets(ident.BGP, v4),
			e.Active.NonSingletonFamilySets(ident.SNMP, v4),
		)
	})
}

// UnionFamilyNonSingleton filters UnionFamilySets to non-singleton sets —
// the paper's headline union alias-set count.
func (e *Env) UnionFamilyNonSingleton(v4 bool) []alias.Set {
	return e.views.unionFamNS[famIdx(v4)].get(func() []alias.Set {
		return alias.NonSingleton(e.UnionFamilySets(v4))
	})
}

// DualStackMerged returns the all-family merge of every protocol's union
// identifier groups — the partition dual-stack analysis reads.
func (e *Env) DualStackMerged() []alias.Set {
	return e.views.dualMerged.get(func() []alias.Set {
		return e.session.Merged(
			e.Both.Sets(ident.SSH), e.Both.Sets(ident.BGP), e.Both.Sets(ident.SNMP))
	})
}

// DualStackSets returns the union dual-stack sets (each spans both
// families).
func (e *Env) DualStackSets() []alias.Set {
	return e.views.dualStack.get(func() []alias.Set {
		return alias.DualStack(e.DualStackMerged())
	})
}

// MIDARRun verifies the sampled SSH sets with the IPID pipeline, memoized
// per (sample size, config). The pipeline advances the world's simulated
// clock while probing, so memoization also pins the measurement chronology:
// one verification run per configuration, no matter how many tables or
// accessors ask for the tally.
func (e *Env) MIDARRun(maxSets int, cfg midar.Config) *MIDARResult {
	key := midarKey{sample: maxSets, cfg: cfg}
	e.views.mu.Lock()
	defer e.views.mu.Unlock()
	if r, ok := e.views.midarRuns[key]; ok {
		return r
	}
	sample := e.midarSample(maxSets)
	session := midar.NewSession(e.World.Fabric.Vantage(topo.VantageMIDAR), e.World.Clock, cfg)
	results, tally := session.VerifySets(sample)
	r := &MIDARResult{Sample: sample, Results: results, Tally: tally}
	if e.views.midarRuns == nil {
		e.views.midarRuns = make(map[midarKey]*MIDARResult)
	}
	e.views.midarRuns[key] = r
	return r
}

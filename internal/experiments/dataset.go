// Package experiments implements one harness per table and figure of the
// paper's evaluation: it scans a synthetic world from the two vantage
// points (active, Censys), extracts identifiers, runs the alias/dual-stack
// inference, and renders the same rows and curves the paper reports.
//
// # The sealed-Dataset invariant
//
// Collection and analysis are strictly phased. While a Dataset is being
// collected it is mutable and uncached. BuildEnv seals every dataset before
// returning its Env; from that point the observations are immutable, the
// mutating methods panic, and all derived views — identifier groups, family
// and non-singleton filters, address universes, merged partitions, the
// MIDAR verification run — are memoized under sync.Once and shared by every
// table, figure, and facade accessor (see views.go). Cached views are
// shared slices and must be treated as read-only. Because the views are
// concurrency-safe and the one clock-mutating computation (the MIDAR run)
// is keyed and executed once, Env.RenderAll can generate every artifact in
// parallel with output byte-identical to a sequential render.
package experiments

import (
	"net/netip"
	"sort"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
)

// Dataset is one source's scan yield: identifier observations per protocol,
// IPv4 and IPv6 mixed (family splits happen at analysis time, as in the
// paper's tables).
//
// A Dataset has two phases. During collection it is mutable: Add/AddAll
// append observations. Seal flips it into the immutable analysis phase:
// mutation panics, and every derived view (identifier groups, family
// filters, address universes, merged partitions) is computed once and
// cached — see views.go. BuildEnv seals all three datasets before returning.
type Dataset struct {
	// Name is the source label ("Active", "Censys", "Union").
	Name string
	// Obs maps protocol to its identifier observations. Read-only after
	// Seal.
	Obs map[ident.Protocol][]alias.Observation
	// NonStandardPortSSH counts SSH services found on non-default ports
	// and excluded from analysis (the paper drops Censys's 5.6M of them).
	NonStandardPortSSH int

	views *datasetViews
	// stream, when set, marks an out-of-core dataset: Obs is empty and the
	// observations live in one folded epoch of the observation log. The
	// address universes and EachObs route through it; see stream.go.
	stream *streamSource
}

// NewDataset returns an empty dataset.
func NewDataset(name string) *Dataset {
	return &Dataset{Name: name, Obs: make(map[ident.Protocol][]alias.Observation)}
}

// Add appends one observation. Panics if the dataset is sealed.
func (d *Dataset) Add(p ident.Protocol, o alias.Observation) {
	d.mustBeUnsealed()
	d.Obs[p] = append(d.Obs[p], o)
}

// AddAll appends a batch of observations, preserving order. Collection
// shards built concurrently merge through AddAll in a fixed protocol
// sequence, which is what keeps Datasets byte-identical across Parallelism
// and Workers settings.
func (d *Dataset) AddAll(p ident.Protocol, obs []alias.Observation) {
	d.mustBeUnsealed()
	if len(obs) == 0 {
		return
	}
	d.Obs[p] = append(d.Obs[p], obs...)
}

// Addrs returns the distinct responsive addresses for a protocol, optionally
// filtered to one family (v4=true/false; pass nil for both), sorted. On a
// sealed dataset the universe is derived once and shared — treat the result
// as read-only.
func (d *Dataset) Addrs(p ident.Protocol, v4 *bool) []netip.Addr {
	f := func() []netip.Addr {
		if d.stream != nil {
			return filterFam(d.stream.addrs[p], v4)
		}
		return distinctAddrs(d.Obs[p], v4)
	}
	if v := d.views; v != nil {
		return v.addrs[p][selIdx(v4)].get(f)
	}
	return f()
}

// AllAddrs returns the distinct addresses across every protocol (Table 1's
// union row), optionally family-filtered. Cached and shared once sealed —
// treat the result as read-only.
func (d *Dataset) AllAddrs(v4 *bool) []netip.Addr {
	f := func() []netip.Addr {
		if d.stream != nil {
			var merged []netip.Addr
			for _, p := range ident.Protocols {
				merged = mergeAddrs(merged, d.stream.addrs[p])
			}
			return filterFam(merged, v4)
		}
		var all []alias.Observation
		for _, p := range ident.Protocols {
			all = append(all, d.Obs[p]...)
		}
		return distinctAddrs(all, v4)
	}
	if v := d.views; v != nil {
		return v.allAddrs[selIdx(v4)].get(f)
	}
	return f()
}

// distinctAddrs derives a sorted, de-duplicated address universe from
// observations, optionally filtered to one family.
func distinctAddrs(obs []alias.Observation, v4 *bool) []netip.Addr {
	seen := make(map[netip.Addr]bool, len(obs))
	out := make([]netip.Addr, 0, len(obs))
	for _, o := range obs {
		if v4 != nil && o.Addr.Is4() != *v4 {
			continue
		}
		if !seen[o.Addr] {
			seen[o.Addr] = true
			out = append(out, o.Addr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Sets groups a protocol's observations into alias sets (all sizes). Cached
// and shared once sealed — treat the result as read-only. Sealed datasets
// group through their open resolver session, which holds the dataset's
// observations.
func (d *Dataset) Sets(p ident.Protocol) []alias.Set {
	if v := d.views; v != nil {
		return v.groups[p].get(func() []alias.Set { return v.session.Sets(p) })
	}
	return alias.Group(d.Obs[p])
}

// Union merges several datasets into one named dataset; duplicate
// observations collapse during grouping.
func Union(name string, parts ...*Dataset) *Dataset {
	out := NewDataset(name)
	for _, p := range parts {
		if p == nil {
			continue
		}
		for proto, obs := range p.Obs {
			out.Obs[proto] = append(out.Obs[proto], obs...)
		}
		out.NonStandardPortSSH += p.NonStandardPortSSH
	}
	return out
}

// v4ptr and v6ptr are family selectors for Addrs/AllAddrs.
var (
	v4true  = true
	v4false = false
	// V4 selects IPv4 observations.
	V4 = &v4true
	// V6 selects IPv6 observations.
	V6 = &v4false
)

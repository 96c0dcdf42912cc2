package experiments

// Out-of-core collection. In StreamCollect mode the scan workers' sinks
// write every observation straight into a per-protocol obslog spill and
// accumulate nothing (ScanOptions.DiscardObs), so the Datasets carry empty
// Obs slices; sealing is then a bounded replay pass that streams the folded
// epoch segment through the resolver sessions and derives the address
// universes in one pass per shard. Peak collection memory is O(alias-set
// output + arena + readahead), not O(observations) — the property the
// megascale-x100 preset depends on.
//
// The replay invariant: the log's canonical epoch fold orders records by
// (source, address, digest) and drops exact duplicates, and resolver
// sessions are order-insensitive by contract, so a streamed run's alias
// sets are byte-identical to the in-RAM run's on every backend — the same
// sets_digest, gated by the stream-equivalence tests.

import (
	"io"
	"net/netip"
	"sync/atomic"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/obslog"
	"aliaslimit/internal/resolver"
)

// obsCounter is a counting ObservationSink: stream mode tees it onto the
// Censys scan sink so the non-standard-port model (a fixed fraction of the
// SSH population) still has its population size after the grabs themselves
// were discarded. Counts match len(Dataset.Obs[p]) of an in-RAM run because
// the tap fires under exactly the condition the batch path keeps a grab.
type obsCounter struct {
	n [numProto]atomic.Int64
}

// Observe implements ObservationSink.
func (c *obsCounter) Observe(p ident.Protocol, _ alias.Observation) { c.n[p].Add(1) }

// count returns how many observations the protocol delivered.
func (c *obsCounter) count(p ident.Protocol) int { return int(c.n[p].Load()) }

// streamSource backs a stream-collected Dataset: its observations live in
// one folded epoch of the observation log, not in RAM. It references the
// live Writer rather than raw byte offsets so every read resolves the
// epoch's segment under the writer's lock — safe across auto-compaction,
// which rewrites the shard files and their offsets mid-run.
type streamSource struct {
	log       *obslog.Writer
	epoch     int
	active    bool // dataset includes SourceActive records
	censys    bool // dataset includes SourceCensys records
	readahead int  // reader chunk size; 0 picks the obslog default

	// addrs holds the per-protocol sorted distinct address universes (both
	// families mixed), derived during the seal replay pass — the only
	// per-observation state a streamed dataset keeps resident.
	addrs [numProto][]netip.Addr
}

// reader opens a bounded-readahead reader over the dataset's epoch segment.
func (ss *streamSource) reader(p ident.Protocol) (*obslog.EpochReader, error) {
	return ss.log.EpochReaderAt(p, ss.epoch, obslog.ReadOptions{Readahead: ss.readahead})
}

// wants reports whether the dataset includes records from a campaign.
func (ss *streamSource) wants(src obslog.Source) bool {
	if src == obslog.SourceCensys {
		return ss.censys
	}
	return ss.active
}

// each streams the dataset's observations for one protocol, in the log's
// canonical (source, address, digest) order.
func (ss *streamSource) each(p ident.Protocol, fn func(alias.Observation)) error {
	r, err := ss.reader(p)
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		src, o, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if ss.wants(src) {
			fn(o)
		}
	}
}

// EachObs visits every observation of one protocol in a deterministic
// order: the collection order for an in-RAM dataset, the log's canonical
// order for a stream-backed one. It is the iteration seam analyses use
// instead of reading Obs directly, so they work identically over both
// representations.
func (d *Dataset) EachObs(p ident.Protocol, fn func(alias.Observation)) error {
	if d.stream != nil {
		return d.stream.each(p, fn)
	}
	for _, o := range d.Obs[p] {
		fn(o)
	}
	return nil
}

// StreamBacked reports whether the dataset's observations live in the
// observation log rather than in RAM. Raw Obs reads are empty on such a
// dataset; every memoized view and EachObs work identically.
func (d *Dataset) StreamBacked() bool { return d != nil && d.stream != nil }

// appendAddr extends a sorted distinct address list with the next address
// of a sorted run — the log's canonical order makes consecutive-dedup
// sufficient, no hash set needed.
func appendAddr(addrs []netip.Addr, a netip.Addr) []netip.Addr {
	if n := len(addrs); n > 0 && addrs[n-1] == a {
		return addrs
	}
	return append(addrs, a)
}

// mergeAddrs merges two sorted distinct address lists into one.
func mergeAddrs(a, b []netip.Addr) []netip.Addr {
	out := make([]netip.Addr, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := a[i].Compare(b[j]); {
		case c < 0:
			out = append(out, a[i])
			i++
		case c > 0:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// filterFam narrows a sorted address list to one family; nil keeps both.
func filterFam(addrs []netip.Addr, v4 *bool) []netip.Addr {
	if v4 == nil {
		return addrs
	}
	out := make([]netip.Addr, 0, len(addrs))
	for _, a := range addrs {
		if a.Is4() == *v4 {
			out = append(out, a)
		}
	}
	return out
}

// readaheadFor maps a collection memory budget to a reader chunk size:
// roughly 1/64th of the budget, clamped to [64 KiB, 8 MiB]. 0 defers to the
// obslog default.
func readaheadFor(budget int64) int {
	if budget <= 0 {
		return 0
	}
	const lo, hi = 64 << 10, 8 << 20
	ra := budget / 64
	if ra < lo {
		return lo
	}
	if ra > hi {
		return hi
	}
	return int(ra)
}

// sealStreamed is seal's out-of-core counterpart: the sessions were fed as
// the scans ran, so it only replays the epoch's folded log segments in one
// bounded pass per shard to derive the address universes, then seals.
func (e *Env) sealStreamed(b resolver.Backend, ses [3]resolver.Session) error {
	for _, p := range ident.Protocols {
		if err := e.streamSealPass(p); err != nil {
			return err
		}
	}
	return e.seal(b, ses)
}

// streamSealPass replays one shard's folded epoch segment, deriving the
// three datasets' sorted distinct address universes for the protocol. A read
// error aborts the seal — no partial dataset is ever sealed from a defective
// segment.
func (e *Env) streamSealPass(p ident.Protocol) error {
	r, err := e.Both.stream.reader(p)
	if err != nil {
		return err
	}
	defer r.Close()
	var act, cen []netip.Addr
	for {
		src, o, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if src == obslog.SourceCensys {
			cen = appendAddr(cen, o.Addr)
		} else {
			act = appendAddr(act, o.Addr)
		}
	}
	e.Active.stream.addrs[p] = act
	e.Censys.stream.addrs[p] = cen
	e.Both.stream.addrs[p] = mergeAddrs(act, cen)
	return nil
}

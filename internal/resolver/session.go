package resolver

import (
	"runtime"
	"sync"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/xrand"
)

// numProto is the number of identifier protocols sessions index by.
const numProto = 3

// maxShards caps a session's shard count: past the core count, extra shards
// only add snapshot work.
const maxShards = 256

// inProcess is the factory behind every built-in backend name: all of them
// open the same session type and differ only in its shard count.
type inProcess struct {
	name string
	// shards is the session's shard count. When fanOut is set it is only
	// the default: Options.Workers overrides it, and 0 picks GOMAXPROCS.
	shards int
	fanOut bool
}

// NewBatch returns the default backend: a one-shard session. Observe folds
// each observation into its identifier's sorted bucket (alias.Grouper) at
// once, Sets snapshots the buckets, and Merged is alias.MergeWith's
// union-find over an address-interning table the session keeps, so repeated
// merges over overlapping address populations (per-family, per-source,
// dual-stack unions) reuse one hash index.
func NewBatch() Backend { return inProcess{name: "batch", shards: 1} }

// Name implements Backend.
func (b inProcess) Name() string { return b.name }

// Open implements Backend; an in-process session never fails to open.
func (b inProcess) Open(opts Options) (Session, error) {
	n := b.shards
	if b.fanOut {
		if opts.Workers > 0 {
			n = opts.Workers
		}
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		n = min(n, maxShards)
	}
	s := &session{table: alias.NewAddrTable()}
	for p := range s.shards {
		s.shards[p] = make([]shard, n)
	}
	return s, nil
}

// shard is one slice of a protocol's identifier space: a grouping arena and
// the mutex that serialises access to it.
type shard struct {
	mu sync.Mutex
	g  alias.Grouper
}

// sets snapshots the shard's alias sets in canonical order.
func (sh *shard) sets() []alias.Set {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.g.Sets()
}

// session is the in-process resolution state. Observations route to a
// shard by identifier, so a group never straddles shards and the canonical
// sort of the concatenated shard snapshots equals a single-arena grouping.
type session struct {
	// shards is indexed by ident.Protocol (SSH, BGP, SNMP).
	shards [numProto][]shard

	// tableMu serialises merges over the shared interning table.
	tableMu sync.Mutex
	table   *alias.AddrTable
}

// Observe implements Session by folding the observation into its shard's
// arena. Safe for concurrent use.
func (s *session) Observe(o alias.Observation) {
	shards := s.shards[o.ID.Proto]
	sh := &shards[0]
	if len(shards) > 1 {
		sh = &shards[ShardRoute(o.ID, len(shards))]
	}
	sh.mu.Lock()
	sh.g.Observe(o)
	sh.mu.Unlock()
}

// Sets implements Session: the shard snapshots, concatenated and sorted
// canonically. It may run concurrently with Observe; an observation landing
// after its shard was snapshotted appears in the next call.
func (s *session) Sets(p ident.Protocol) []alias.Set {
	shards := s.shards[p]
	if len(shards) == 1 {
		return shards[0].sets()
	}
	out := []alias.Set{}
	for i := range shards {
		out = append(out, shards[i].sets()...)
	}
	alias.SortSets(out)
	return out
}

// Merged implements Session via alias.MergeWith over the session's table.
func (s *session) Merged(groups ...[]alias.Set) []alias.Set {
	s.tableMu.Lock()
	defer s.tableMu.Unlock()
	return alias.MergeWith(s.table, groups...)
}

// Close implements Session; an in-process session holds no external
// resources.
func (s *session) Close() error { return nil }

// ShardRoute returns the shard index in [0, workers) an observation's
// identifier routes to. It is the one shard map every sharded session
// shares — the in-process session's shards and distres's worker processes
// route with the same function, so a group never straddles shards and
// concatenating per-shard canonical sets and sorting equals the single-arena
// grouping.
func ShardRoute(id ident.Identifier, workers int) int {
	return int(xrand.Hash64(id.Digest) % uint64(workers))
}

// Package resolver turns alias resolution into a pluggable backend
// subsystem: the step that converts protocol identifier observations into
// alias sets — the paper's contribution — is expressed behind one two-level
// interface with interchangeable, byte-identical implementations.
//
// # Architecture
//
// A Backend is a factory for one resolution strategy; Open yields a Session,
// the stateful handle every consumer talks to. The Session contract unifies
// what used to be two APIs — the live collection Sink and the blocking
// Group/Merge pair — behind four methods:
//
//   - Observe: consume one identifier observation, online, in any order,
//     from any number of goroutines. Observations route to their protocol by
//     the identifier's Proto field.
//   - Sets: snapshot one protocol's observations into canonical alias sets —
//     one set per distinct identifier, singletons included (alias.Group
//     semantics), byte-identical regardless of arrival order.
//   - Merged: consolidate alias-set partitions into connected components —
//     any two sets sharing an address collapse (alias.Merge semantics).
//     Merged is a pure function of its arguments, independent of the
//     session's observed state.
//   - Close: release the session's resources and surface any deferred
//     failure (remote backends accumulate a sticky error; in-process ones
//     never fail).
//
// One contract means one wiring: the scan worker pools feed a Session while
// sweeps are in flight, the daemon holds a Session per tenant, the sealed
// analysis views group and merge through a Session — and a backend whose
// state lives in other processes (internal/distres) plugs into all of them
// without special cases, which the old blocking interface could not express.
//
// One in-process session type serves every built-in backend name. Its
// state is a set of shards per protocol, each a mutex plus an alias.Grouper
// arena: Observe folds the observation into its identifier's sorted bucket
// at once (routing by ShardRoute when there is more than one shard), Sets
// concatenates the shard snapshots and sorts them canonically, and Merged is
// alias.MergeWith's union-find over one address-interning table the session
// keeps. The names differ only in shard count:
//
//   - batch and streaming: one shard. Both names open the same session; they
//     are kept because the CI matrix, the scenario reports and the
//     benchmark's per-backend metrics are keyed on them.
//   - sharded: Options.Workers shards (else the count New was given, else
//     GOMAXPROCS), capped at 256.
//
// Out-of-process backends register themselves by name (Register); linking
// internal/distres adds "distributed", the multi-process incarnation of the
// sharded session (worker processes instead of shards, the same hash route
// over a binary wire protocol) and the one backend that can fail.
//
// Every session finishes by canonicalising through alias.SortSets, so for
// identical inputs all backends produce byte-identical alias sets at any
// shard or worker count — the property the scenario matrix asserts on every
// preset and the per-backend benchmarks price.
package resolver

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
)

// Backend is a factory for one alias-resolution strategy. Implementations
// must be safe for concurrent use; the sessions they open are independent.
type Backend interface {
	// Name is the stable identifier used by CLI flags, reports, and
	// benchmarks ("batch", "streaming", "sharded", "distributed").
	Name() string
	// Open starts one resolution session. In-process backends never fail;
	// remote backends may (worker spawn, connection refused).
	Open(opts Options) (Session, error)
}

// Options tune one session at Open time. The zero value is always valid and
// selects the backend's defaults.
type Options struct {
	// Workers overrides the backend's fan-out for this session — shards for
	// sharded, worker processes for distributed; 0 keeps the count the
	// factory was constructed with. Ignored by backends that do not fan out.
	Workers int
}

// Session is one live resolution state: observations in, canonical alias
// sets out. Implementations must be safe for concurrent use by multiple
// goroutines — Observe may race with Observe, and Sets/Merged may interleave
// with Observe, snapshotting the observations applied so far — and must
// produce byte-identical output for identical input regardless of arrival
// order or internal concurrency.
type Session interface {
	// Observe consumes one identifier observation; its protocol is
	// o.ID.Proto. Duplicate (identifier, address) observations collapse.
	Observe(o alias.Observation)
	// Sets snapshots one protocol's observations into canonical alias sets,
	// one per distinct identifier, singletons included — alias.Group
	// semantics. A failed remote session returns nil (see Close).
	Sets(p ident.Protocol) []alias.Set
	// Merged consolidates alias-set partitions: any two sets sharing an
	// address collapse into one — alias.Merge semantics. Independent of the
	// session's observed state. A failed remote session returns nil.
	Merged(groups ...[]alias.Set) []alias.Set
	// Close releases the session and reports the first error the session
	// absorbed (nil for the in-process backends). Idempotent.
	Close() error
}

// registry holds the backends registered beyond the three built-ins.
var registry struct {
	mu        sync.Mutex
	factories map[string]func(workers int) Backend
}

// Register installs an out-of-process backend constructor under its flag
// name; workers is the fan-out bound the caller passed New. Registering a
// built-in name or registering twice panics — both are wiring bugs.
func Register(name string, factory func(workers int) Backend) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, b := range builtinNames {
		if name == b {
			panic("resolver: Register of built-in backend " + name)
		}
	}
	if _, dup := registry.factories[name]; dup {
		panic("resolver: duplicate Register of backend " + name)
	}
	if registry.factories == nil {
		registry.factories = make(map[string]func(workers int) Backend)
	}
	registry.factories[name] = factory
}

// builtinNames is the canonical (report) order of the in-process backends.
var builtinNames = []string{"batch", "streaming", "sharded"}

// Names lists the available backends: the built-ins in canonical order, then
// any registered backends sorted by name. The list depends on what the
// binary links — "distributed" appears wherever internal/distres does.
func Names() []string {
	out := append([]string(nil), builtinNames...)
	registry.mu.Lock()
	defer registry.mu.Unlock()
	extra := make([]string, 0, len(registry.factories))
	for name := range registry.factories {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	return append(out, extra...)
}

// New resolves a backend factory by name. The empty name selects the batch
// default; workers bounds the fan-out of backends that shard (shards for
// sharded, processes for distributed; 0 picks each backend's default) and is
// ignored by the others.
func New(name string, workers int) (Backend, error) {
	switch name {
	case "", "batch":
		return NewBatch(), nil
	case "streaming":
		return inProcess{name: name, shards: 1}, nil
	case "sharded":
		return inProcess{name: name, shards: workers, fanOut: true}, nil
	}
	registry.mu.Lock()
	factory, ok := registry.factories[name]
	registry.mu.Unlock()
	if ok {
		return factory(workers), nil
	}
	return nil, fmt.Errorf("resolver: unknown backend %q (have: %s)",
		name, strings.Join(Names(), ", "))
}

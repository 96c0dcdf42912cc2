// Package distres is the distributed incarnation of the sharded resolver
// backend: the identifier space is partitioned across worker *processes*
// instead of in-process shards, with one deterministic cross-shard merge at
// the coordinator. It registers itself with internal/resolver as the
// "distributed" backend — linking this package is enabling it.
//
// # Topology
//
// A Backend lazily starts one Cluster of N shard workers on first Open and
// shares it across every session it opens. A worker is a full aliasd server
// (internal/aliasd) reached over HTTP: the coordinator re-executes its own
// binary with ALIASLIMIT_SHARD_WORKER set (any main that calls
// aliasd.RunWorkerIfRequested first is worker-capable), waits for the
// "DISTRES_READY <url>" handshake on the child's stdout, and holds the
// child's stdin — EOF is the worker's exit signal. Setting
// ALIASLIMIT_SHARD_WORKERS to a comma-separated URL list attaches to
// already-running workers instead (the multi-machine shape).
//
// Each coordinator session creates one remote aliasd session per worker
// (the ordinary JSON POST /v1/sessions, backend "batch" — the shard state
// is the same alias.Grouper arena every in-process session folds through)
// and then speaks the binary wire protocol (wire.go) against POST
// /v1/sessions/{id}/resolve, the fast path that bypasses the NDJSON ingest
// queue. HTTP /v1 NDJSON stays for humans; the frames are for the fleet.
//
// # Determinism
//
// Observations route to workers by resolver.ShardRoute — the same
// identifier-hash map the in-process sharded session uses — so a group
// never straddles workers, and concatenating the workers' canonical alias
// sets and sorting (alias.SortSets) is byte-identical to the single-arena
// batch grouping. Merged flattens its partitions, deals them round-robin to
// the workers for shard-local union-find collapse, and merges the partial
// partitions in one final pass at the coordinator — union-find closure is
// associative, so the result equals the single-pass merge. The scenario
// sets_digest gate holds for "distributed" on every preset at any worker
// count, and the CI distributed-compare job enforces it with real worker
// processes.
//
// # Failure model
//
// Remote calls can fail (a worker crashes mid-stream, the wire corrupts).
// The first failure is recorded as the session's sticky error, wrapped in
// ErrWorkerFailed; from then on Sets and Merged return nil — no partial
// result ever escapes — and Close reports the error. The condition is
// retryable: workers hold no state a fresh session cannot rebuild, so
// closing the backend and rerunning is always safe.
package distres

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"

	"aliaslimit/internal/resolver"
)

// ErrWorkerFailed marks a resolution that died with its cluster: a shard
// worker crashed, hung, or returned a corrupt stream. It is a clean,
// retryable condition — no partial merge was committed, and rerunning
// against a fresh cluster is always safe. Test with errors.Is.
var ErrWorkerFailed = errors.New("distres: shard worker failed")

// DefaultWorkers is the worker-process count when none is configured.
const DefaultWorkers = 2

// maxWorkers caps the process fan-out; resolver.ShardRoute's byte-wide
// route shares the same bound.
const maxWorkers = 256

func init() {
	resolver.Register("distributed", func(workers int) resolver.Backend {
		return New(workers)
	})
}

// Backend is the "distributed" resolver backend: a factory whose sessions
// share one lazily started worker cluster.
type Backend struct {
	workers int
	attach  []string

	mu      sync.Mutex
	cluster *Cluster
	closed  bool
}

// New returns a distributed backend that will run workers shard-worker
// processes (0 picks DefaultWorkers, or the URL count when AttachEnv is
// set). The cluster starts on first Open and stops at Close.
func New(workers int) *Backend {
	b := &Backend{workers: workers}
	if env := os.Getenv(AttachEnv); env != "" {
		for _, u := range strings.Split(env, ",") {
			if u = strings.TrimSpace(u); u != "" {
				b.attach = append(b.attach, u)
			}
		}
	}
	return b
}

// Name implements resolver.Backend.
func (b *Backend) Name() string { return "distributed" }

// Workers returns the worker-process count the cluster runs (or will run).
func (b *Backend) Workers() int {
	if len(b.attach) > 0 {
		return len(b.attach)
	}
	w := b.workers
	if w <= 0 {
		w = DefaultWorkers
	}
	if w > maxWorkers {
		w = maxWorkers
	}
	return w
}

// Cluster returns the running cluster, or nil before the first Open — the
// inspection and failure-injection surface the process-level tests use.
func (b *Backend) Cluster() *Cluster {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cluster
}

// ensureCluster starts the worker fleet once. The cluster size is fixed for
// the backend's lifetime: the shard route is a function of the worker count,
// so every session on one backend must agree on it.
func (b *Backend) ensureCluster() (*Cluster, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, fmt.Errorf("%w: backend closed", ErrWorkerFailed)
	}
	if b.cluster != nil {
		return b.cluster, nil
	}
	if len(b.attach) > 0 {
		b.cluster = attach(b.attach)
		return b.cluster, nil
	}
	c, err := spawn(b.Workers())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrWorkerFailed, err)
	}
	b.cluster = c
	return c, nil
}

// Open implements resolver.Backend: it ensures the cluster is up and creates
// one remote aliasd session per worker. The per-session Options.Workers
// override is ignored — the cluster's size is part of the shard-map
// contract shared by every session (use New's count instead).
func (b *Backend) Open(resolver.Options) (resolver.Session, error) {
	c, err := b.ensureCluster()
	if err != nil {
		return nil, err
	}
	return openSession(c)
}

// Close implements io.Closer: it stops the worker processes. Sessions still
// open on the cluster fail their next remote call with ErrWorkerFailed.
func (b *Backend) Close() error {
	b.mu.Lock()
	c := b.cluster
	b.cluster = nil
	b.closed = true
	b.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}

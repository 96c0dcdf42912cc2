package resolver

import (
	"net/netip"
	"sync"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
)

// LatestStream is the longitudinal layer's incremental merge strategy: a
// last-write-wins map from address to identifier, fed epoch by epoch in
// chronological order. An address renumbered in a later epoch sheds its
// stale identifier the moment the fresh observation arrives — the online
// counterpart of the batch decay-weighted history, with provably identical
// outcomes at decay factors at or below 0.5: for any finite history the
// older sightings' geometric weights sum to strictly less than the freshest
// observation's, so the most recent digest always wins there (the scenario
// tests pin the coincidence at 0.5; toward 1 the strategies diverge). State
// is O(addresses), single pass, no per-epoch history retained.
type LatestStream struct {
	mu  sync.Mutex
	cur map[netip.Addr]ident.Identifier
}

// NewLatestStream returns an empty last-write-wins stream.
func NewLatestStream() *LatestStream {
	return &LatestStream{cur: make(map[netip.Addr]ident.Identifier)}
}

// Observe records the address's current identifier, replacing any earlier
// claim.
func (l *LatestStream) Observe(o alias.Observation) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cur[o.Addr] = o.ID
}

// Sets groups the surviving (address, identifier) assignments into canonical
// alias sets.
func (l *LatestStream) Sets() []alias.Set {
	l.mu.Lock()
	obs := make([]alias.Observation, 0, len(l.cur))
	for a, id := range l.cur {
		obs = append(obs, alias.Observation{Addr: a, ID: id})
	}
	l.mu.Unlock()
	return alias.Group(obs)
}

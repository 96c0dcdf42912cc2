package resolver

import (
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"testing"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/xrand"
)

// determinismCorpus builds a deterministic observation corpus shaped like a
// real measurement round: shared identifiers (alias sets), duplicates, both
// families, all three protocols.
func determinismCorpus(seed uint64, n int) []alias.Observation {
	rng := xrand.NewSplitMix64(seed)
	obs := make([]alias.Observation, 0, n)
	for i := 0; i < n; i++ {
		id := ident.Identifier{
			Proto:  ident.Protocol(rng.Intn(3)),
			Digest: fmt.Sprintf("id-%04d", rng.Intn(n/5+1)),
		}
		var addr netip.Addr
		if rng.Intn(4) == 0 {
			addr = netip.AddrFrom16([16]byte{0x20, 0x01, 0xd, 0xb8, 0, 0, 0, 0, 0, 0, 0, byte(rng.Intn(9)), 0, 0, byte(rng.Intn(250)), byte(rng.Intn(250))})
		} else {
			addr = netip.AddrFrom4([4]byte{203, 0, byte(113 + rng.Intn(5)), byte(rng.Intn(250))})
		}
		obs = append(obs, alias.Observation{Addr: addr, ID: id})
	}
	obs = append(obs, obs[0], obs[len(obs)/2]) // duplicates must collapse
	return obs
}

// protoObs filters a corpus to one protocol, preserving order.
func protoObs(obs []alias.Observation, p ident.Protocol) []alias.Observation {
	var out []alias.Observation
	for _, o := range obs {
		if o.ID.Proto == p {
			out = append(out, o)
		}
	}
	return out
}

// setsEqual asserts byte-identical canonical alias sets.
func setsEqual(t *testing.T, want, got []alias.Set, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d sets, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].Key() != got[i].Key() {
			t.Fatalf("%s: set %d = %q, want %q", label, i, got[i].Signature(), want[i].Signature())
		}
	}
}

// TestGroupBackendsMatchSortReference is the cross-layer determinism gate
// for the merge-as-you-go rewrite: on the same corpus, the retired
// global-sort implementation (alias.GroupSorted) and every session's Sets —
// every backend name, and the sharded session at 1, 2 and 7 shards — must
// produce byte-identical alias sets per protocol, across two seeds.
func TestGroupBackendsMatchSortReference(t *testing.T) {
	for _, seed := range []uint64{5, 91} {
		obs := determinismCorpus(seed, 5000)
		for _, ls := range sessionsUnderTest(t) {
			for _, o := range obs {
				ls.sess.Observe(o)
			}
			for _, p := range ident.Protocols {
				want := alias.GroupSorted(protoObs(obs, p))
				got := ls.sess.Sets(p)
				setsEqual(t, want, got, fmt.Sprintf("seed %d: %s proto %s", seed, ls.label, p))
			}
		}
	}
}

// TestMergeBackendsAgreeOnGroupedCorpus closes the loop: the partitions the
// group core emits must merge identically through every backend's session.
func TestMergeBackendsAgreeOnGroupedCorpus(t *testing.T) {
	obs := determinismCorpus(13, 3000)
	half := len(obs) / 2
	a, b := alias.Group(obs[:half]), alias.Group(obs[half:])
	want := alias.Merge(a, b)
	for _, ls := range sessionsUnderTest(t) {
		setsEqual(t, want, ls.sess.Merged(a, b), ls.label+" merge")
	}
}

// TestBatchSetsPoolReuse hammers one session's Sets from concurrent
// goroutines, on one shard and on seven: snapshots must never leak state
// between calls (run under -race this is also the shards' concurrency
// proof).
func TestBatchSetsPoolReuse(t *testing.T) {
	obs := determinismCorpus(29, 2000)
	want := alias.GroupSorted(protoObs(obs, ident.SSH))
	for _, ls := range shardedSessions(t, 1, 7) {
		for _, o := range obs {
			ls.sess.Observe(o)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if !slices.Equal(keysOf(want), keysOf(ls.sess.Sets(ident.SSH))) {
						t.Errorf("%s: concurrent snapshot %d differs from the reference", ls.label, i)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

package resolver

import (
	"fmt"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"testing"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/xrand"
)

// corpus builds a deterministic synthetic observation stream: identifiers
// shared across several addresses, addresses claimed by several identifiers,
// duplicates, and a v4/v6 mix — every structural case the pipeline produces.
func corpus(seed uint64, n int) []alias.Observation {
	obs := make([]alias.Observation, 0, n)
	sk := fmt.Sprint(seed)
	for i := 0; i < n; i++ {
		ik := fmt.Sprint(i)
		id := ident.Identifier{
			Proto:  ident.SSH,
			Digest: fmt.Sprintf("d%04d", xrand.Hash64(sk, "id", ik)%uint64(n/4+1)),
		}
		var addr netip.Addr
		ai := xrand.Hash64(sk, "addr", ik) % uint64(n/3+1)
		if ai%5 == 0 {
			addr = netip.AddrFrom16([16]byte{0x20, 0x01, 0xd, 0xb8, 15: byte(ai)}).
				WithZone("")
		} else {
			addr = netip.AddrFrom4([4]byte{10, byte(ai >> 16), byte(ai >> 8), byte(ai)})
		}
		obs = append(obs, alias.Observation{Addr: addr, ID: id})
	}
	return obs
}

// keysOf renders a partition as its canonical key sequence.
func keysOf(sets []alias.Set) []string {
	out := make([]string, len(sets))
	for i, s := range sets {
		out[i] = string(s.Key())
	}
	return out
}

// requireSameSets fails unless the two partitions are byte-identical.
func requireSameSets(t *testing.T, label string, want, got []alias.Set) {
	t.Helper()
	wk, gk := keysOf(want), keysOf(got)
	if len(wk) != len(gk) {
		t.Fatalf("%s: %d sets, want %d", label, len(gk), len(wk))
	}
	for i := range wk {
		if wk[i] != gk[i] {
			t.Fatalf("%s: set %d differs:\nwant %q\ngot  %q", label, i, want[i].Signature(), got[i].Signature())
		}
	}
}

// labelledSession pairs one open session with a test label.
type labelledSession struct {
	label string
	sess  Session
}

// openSession opens one session on b and closes it when the test ends.
func openSession(t *testing.T, label string, b Backend) Session {
	t.Helper()
	s, err := b.Open(Options{})
	if err != nil {
		t.Fatalf("%s: Open: %v", label, err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("%s: Close: %v", label, err)
		}
	})
	return s
}

// shardedSessions opens one sharded session per shard count.
func shardedSessions(t *testing.T, shards ...int) []labelledSession {
	t.Helper()
	var out []labelledSession
	for _, w := range shards {
		b, err := New("sharded", w)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("sharded-%d", w)
		out = append(out, labelledSession{label, openSession(t, label, b)})
	}
	return out
}

// sessionsUnderTest opens one session per registered backend name, plus the
// sharded session at 1, 2 and 7 shards.
func sessionsUnderTest(t *testing.T) []labelledSession {
	t.Helper()
	var out []labelledSession
	for _, name := range Names() {
		b, err := New(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, labelledSession{name, openSession(t, name, b)})
	}
	return append(out, shardedSessions(t, 1, 2, 7)...)
}

// TestSessionGroupEquivalence: every backend's session groups the same
// observations into byte-identical alias sets, at two seeds.
func TestSessionGroupEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 9} {
		obs := corpus(seed, 3000)
		want := alias.Group(obs)
		for _, ls := range sessionsUnderTest(t) {
			for _, o := range obs {
				ls.sess.Observe(o)
			}
			got := ls.sess.Sets(ident.SSH)
			requireSameSets(t, fmt.Sprintf("seed %d backend %s", seed, ls.label), want, got)
		}
	}
}

// TestSessionMergeEquivalence: every backend's session merges the same
// partitions into byte-identical components, at two seeds.
func TestSessionMergeEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 9} {
		a := alias.Group(corpus(seed, 2000))
		b2 := alias.Group(corpus(seed+100, 2000))
		c := alias.Group(corpus(seed+200, 500))
		want := alias.Merge(a, b2, c)
		for _, ls := range sessionsUnderTest(t) {
			got := ls.sess.Merged(a, b2, c)
			requireSameSets(t, fmt.Sprintf("seed %d backend %s", seed, ls.label), want, got)
		}
	}
}

// TestSessionConcurrentFeed: observations fed from many goroutines in racing
// order still finalise into the batch partition — the live-collection
// contract every session implementation must honor.
func TestSessionConcurrentFeed(t *testing.T) {
	obs := corpus(3, 4000)
	want := alias.Group(obs)
	for _, ls := range sessionsUnderTest(t) {
		var wg sync.WaitGroup
		const feeders = 8
		for f := 0; f < feeders; f++ {
			wg.Add(1)
			go func(f int) {
				defer wg.Done()
				for i := f; i < len(obs); i += feeders {
					ls.sess.Observe(obs[i])
				}
			}(f)
		}
		wg.Wait()
		requireSameSets(t, ls.label+" concurrent feed", want, ls.sess.Sets(ident.SSH))
	}
}

// TestSessionRoutesPerProtocol: observations land in their identifier's
// protocol, and Sets of an unfed protocol is empty.
func TestSessionRoutesPerProtocol(t *testing.T) {
	a := netip.MustParseAddr("10.0.0.1")
	for _, ls := range sessionsUnderTest(t) {
		ls.sess.Observe(alias.Observation{Addr: a, ID: ident.Identifier{Proto: ident.SSH, Digest: "x"}})
		ls.sess.Observe(alias.Observation{Addr: a, ID: ident.Identifier{Proto: ident.BGP, Digest: "y"}})
		if n := len(ls.sess.Sets(ident.SSH)); n != 1 {
			t.Fatalf("%s: SSH has %d sets, want 1", ls.label, n)
		}
		if n := len(ls.sess.Sets(ident.SNMP)); n != 0 {
			t.Fatalf("%s: SNMP has %d sets, want 0", ls.label, n)
		}
	}
}

// TestStreamConcurrentFeed: all three protocols fed from many goroutines in
// racing order still finalise, per protocol, into the reference grouping —
// on one shard and on seven.
func TestStreamConcurrentFeed(t *testing.T) {
	obs := determinismCorpus(3, 4000)
	for _, ls := range shardedSessions(t, 1, 7) {
		var wg sync.WaitGroup
		const feeders = 8
		for f := 0; f < feeders; f++ {
			wg.Add(1)
			go func(f int) {
				defer wg.Done()
				for i := f; i < len(obs); i += feeders {
					ls.sess.Observe(obs[i])
				}
			}(f)
		}
		wg.Wait()
		for _, p := range ident.Protocols {
			want := alias.Group(protoObs(obs, p))
			requireSameSets(t, fmt.Sprintf("%s concurrent feed proto %s", ls.label, p), want, ls.sess.Sets(p))
		}
	}
}

// TestSessionMergedOrderInsensitive: merging partitions in any order or
// granularity yields alias.Merge's components, and repeated merges through
// one session's persistent interning table never leak state between calls.
func TestSessionMergedOrderInsensitive(t *testing.T) {
	a := alias.Group(corpus(5, 1500))
	b := alias.Group(corpus(6, 1500))
	want := alias.Merge(a, b)
	oneByOne := make([][]alias.Set, 0, len(a)+1)
	for _, s := range a {
		oneByOne = append(oneByOne, []alias.Set{s})
	}
	oneByOne = append(oneByOne, b)
	for _, ls := range sessionsUnderTest(t) {
		requireSameSets(t, ls.label+" forward", want, ls.sess.Merged(a, b))
		requireSameSets(t, ls.label+" reverse", want, ls.sess.Merged(b, a))
		requireSameSets(t, ls.label+" one-by-one", want, ls.sess.Merged(oneByOne...))
		requireSameSets(t, ls.label+" one side", alias.Merge(b), ls.sess.Merged(b))
	}
}

// TestLatestStreamReplaces: a fresh observation of an address with a new
// identifier moves the address — the stale claim is gone from the output.
func TestLatestStreamReplaces(t *testing.T) {
	a1 := netip.MustParseAddr("10.0.0.1")
	a2 := netip.MustParseAddr("10.0.0.2")
	idA := ident.Identifier{Proto: ident.SSH, Digest: "aaa"}
	idB := ident.Identifier{Proto: ident.SSH, Digest: "bbb"}
	l := NewLatestStream()
	l.Observe(alias.Observation{Addr: a1, ID: idA})
	l.Observe(alias.Observation{Addr: a2, ID: idA})
	l.Observe(alias.Observation{Addr: a1, ID: idB}) // a1 renumbered
	sets := l.Sets()
	if len(sets) != 2 {
		t.Fatalf("got %d sets, want 2: %v", len(sets), sets)
	}
	for _, s := range sets {
		if s.Contains(a1) && s.Contains(a2) {
			t.Fatalf("stale claim survived: %s", s.Signature())
		}
	}
}

// TestStreamSnapshotDuringFeed: Sets may interleave with Observe — the
// session-safe contract the resolution daemon relies on. Every snapshot is a
// well-formed partition, and the final snapshot matches the reference
// grouping, on one shard and on seven.
func TestStreamSnapshotDuringFeed(t *testing.T) {
	obs := corpus(7, 4000)
	want := alias.Group(obs)
	for _, ls := range shardedSessions(t, 1, 7) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			for _, o := range obs {
				ls.sess.Observe(o)
			}
		}()
		// Query mid-ingest: each snapshot must be internally consistent
		// (in canonical order) even while observations keep landing.
		for i := 0; i < 50; i++ {
			sets := ls.sess.Sets(ident.SSH)
			canon := slices.Clone(sets)
			alias.SortSets(canon)
			requireSameSets(t, fmt.Sprintf("%s snapshot %d", ls.label, i), canon, sets)
		}
		<-done
		requireSameSets(t, ls.label+" final snapshot", want, ls.sess.Sets(ident.SSH))
	}
}

// TestShardCounts: batch and streaming open one shard; sharded opens the
// count New was given, overridden by Options.Workers, defaulting to
// GOMAXPROCS and capped at maxShards.
func TestShardCounts(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
		opts    Options
		want    int
	}{
		{"batch", 0, Options{Workers: 4}, 1},
		{"streaming", 3, Options{}, 1},
		{"sharded", 7, Options{}, 7},
		{"sharded", 7, Options{Workers: 2}, 2},
		{"sharded", 0, Options{}, runtime.GOMAXPROCS(0)},
		{"sharded", 1000, Options{}, maxShards},
	} {
		b, err := New(tc.name, tc.workers)
		if err != nil {
			t.Fatal(err)
		}
		s, err := b.Open(tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		for p, shards := range s.(*session).shards {
			if len(shards) != tc.want {
				t.Fatalf("New(%q, %d).Open(%+v): proto %d has %d shards, want %d",
					tc.name, tc.workers, tc.opts, p, len(shards), tc.want)
			}
		}
	}
}

// TestNewRegistry covers name resolution of the built-in backends.
func TestNewRegistry(t *testing.T) {
	for _, name := range append([]string{""}, Names()...) {
		b, err := New(name, 0)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if name != "" && b.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, b.Name())
		}
	}
	if b, _ := New("", 0); b.Name() != "batch" {
		t.Fatalf("default backend is %q, want batch", b.Name())
	}
	if _, err := New("quantum", 0); err == nil {
		t.Fatal("unknown backend accepted")
	}
	names := Names()
	for i, want := range []string{"batch", "streaming", "sharded"} {
		if i >= len(names) || names[i] != want {
			t.Fatalf("Names() = %v, want the built-ins %v as prefix", names, builtinNames)
		}
	}
}

// fakeBackend is a registrable stand-in for an out-of-process backend.
type fakeBackend struct{ workers int }

func (fakeBackend) Name() string { return "testfake" }
func (f fakeBackend) Open(Options) (Session, error) {
	return NewBatch().Open(Options{})
}

// TestRegisterExtendsRegistry: a registered backend resolves by name, lists
// after the built-ins, and receives the worker bound New was given.
func TestRegisterExtendsRegistry(t *testing.T) {
	var gotWorkers int
	Register("testfake", func(workers int) Backend {
		gotWorkers = workers
		return fakeBackend{workers: workers}
	})
	b, err := New("testfake", 5)
	if err != nil {
		t.Fatalf("New(testfake): %v", err)
	}
	if b.Name() != "testfake" || gotWorkers != 5 {
		t.Fatalf("factory got name %q workers %d, want testfake 5", b.Name(), gotWorkers)
	}
	names := Names()
	if names[len(names)-1] != "testfake" {
		t.Fatalf("Names() = %v, want registered backend after built-ins", names)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register("testfake", func(int) Backend { return fakeBackend{} })
}

// BenchmarkBackendGroup prices each backend's session grouping on one
// synthetic corpus.
func BenchmarkBackendGroup(b *testing.B) {
	obs := corpus(1, 20000)
	for _, name := range Names() {
		be, _ := New(name, 0)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, _ := be.Open(Options{})
				for _, o := range obs {
					s.Observe(o)
				}
				s.Sets(ident.SSH)
				s.Close()
			}
		})
	}
}

// BenchmarkBackendMerge prices each backend's cross-partition merge.
func BenchmarkBackendMerge(b *testing.B) {
	g1 := alias.Group(corpus(1, 10000))
	g2 := alias.Group(corpus(2, 10000))
	g3 := alias.Group(corpus(3, 4000))
	for _, name := range Names() {
		be, _ := New(name, 0)
		s, _ := be.Open(Options{})
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Merged(g1, g2, g3)
			}
		})
	}
}

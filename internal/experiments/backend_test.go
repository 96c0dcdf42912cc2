package experiments

import (
	"testing"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/resolver"
	"aliaslimit/internal/topo"
)

// backendEnv builds a small measured environment on the named resolver
// backend.
func backendEnv(t *testing.T, name string) *Env {
	t.Helper()
	cfg := topo.Default()
	cfg.Scale = 0.05
	cfg.Seed = 11
	b, err := resolver.New(name, 0)
	if err != nil {
		t.Fatal(err)
	}
	env, err := BuildEnv(Options{Topo: cfg, Scan: ScanOptions{Workers: 64}, Backend: b})
	if err != nil {
		t.Fatalf("BuildEnv(%s): %v", name, err)
	}
	return env
}

// viewKeys flattens a partition into its canonical key sequence.
func viewKeys(sets []alias.Set) []string {
	out := make([]string, len(sets))
	for i, s := range sets {
		out[i] = string(s.Key())
	}
	return out
}

// requireSameView fails unless two partitions are byte-identical.
func requireSameView(t *testing.T, label string, want, got []alias.Set) {
	t.Helper()
	wk, gk := viewKeys(want), viewKeys(got)
	if len(wk) != len(gk) {
		t.Fatalf("%s: %d sets, want %d", label, len(gk), len(wk))
	}
	for i := range wk {
		if wk[i] != gk[i] {
			t.Fatalf("%s: set %d differs: want %q, got %q",
				label, i, want[i].Signature(), got[i].Signature())
		}
	}
}

// TestBackendViewsIdentical rebuilds the same world on every resolver
// backend and requires byte-identical analysis views — the core contract
// the backend subsystem must keep.
func TestBackendViewsIdentical(t *testing.T) {
	ref := backendEnv(t, "batch")
	for _, name := range resolver.Names()[1:] {
		env := backendEnv(t, name)
		if got := env.Resolver().Name(); got != name {
			t.Fatalf("env resolves through %q, want %q", got, name)
		}
		for _, p := range ident.Protocols {
			requireSameView(t, name+" Both.Sets "+p.String(),
				ref.Both.Sets(p), env.Both.Sets(p))
			requireSameView(t, name+" Active.NonSingletonSets "+p.String(),
				ref.Active.NonSingletonSets(p), env.Active.NonSingletonSets(p))
		}
		for _, v4 := range []bool{true, false} {
			requireSameView(t, name+" UnionFamilyNonSingleton",
				ref.UnionFamilyNonSingleton(v4), env.UnionFamilyNonSingleton(v4))
			requireSameView(t, name+" Both.MergedFamily",
				ref.Both.MergedFamily(v4), env.Both.MergedFamily(v4))
		}
		requireSameView(t, name+" DualStackSets", ref.DualStackSets(), env.DualStackSets())
	}
}

// TestStreamingSinkFedLive asserts that every dataset's identifier groups —
// Active, Censys, and the union — were resolved online by the
// collection-time sessions, on the default batch backend too, and match a
// regroup of the sealed observations.
func TestStreamingSinkFedLive(t *testing.T) {
	env := backendEnv(t, "batch")
	for _, ds := range []*Dataset{env.Both, env.Active, env.Censys} {
		for _, p := range ident.Protocols {
			// The sealed observations are never replayed into the session,
			// so equality with a regroup proves the collection-time feed saw
			// every observation.
			requireSameView(t, ds.Name+" live vs regroup "+p.String(),
				alias.Group(ds.Obs[p]), ds.Sets(p))
		}
	}
}

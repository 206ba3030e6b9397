package core

import (
	"context"
	"testing"

	"repro/internal/nn"
	"repro/internal/obs"
)

// spanTreeOf runs fn under a fresh tracer and indexes the finished spans
// by name.
func spanTreeOf(t *testing.T, fn func(ctx context.Context)) (map[string][]obs.SpanRecord, []obs.SpanRecord) {
	t.Helper()
	tr := obs.NewTracer()
	fn(obs.WithTracer(context.Background(), tr))
	recs := tr.Records()
	byName := make(map[string][]obs.SpanRecord)
	for _, r := range recs {
		byName[r.Name] = append(byName[r.Name], r)
	}
	return byName, recs
}

// rootOf returns the single span with the given name and asserts it is a
// root (its own Root).
func rootOf(t *testing.T, byName map[string][]obs.SpanRecord, name string) obs.SpanRecord {
	t.Helper()
	spans := byName[name]
	if len(spans) != 1 {
		t.Fatalf("want exactly one %q span, got %d", name, len(spans))
	}
	sp := spans[0]
	if sp.Parent != 0 || sp.Root != sp.ID {
		t.Fatalf("%q is not a root span: %+v", name, sp)
	}
	return sp
}

// assertNestedUnder asserts every named phase appears at least once as a
// descendant of root (same Root, contained in root's time window).
func assertNestedUnder(t *testing.T, byName map[string][]obs.SpanRecord, root obs.SpanRecord, phases ...string) {
	t.Helper()
	for _, phase := range phases {
		spans := byName[phase]
		if len(spans) == 0 {
			t.Errorf("recovery emitted no %q span", phase)
			continue
		}
		for _, sp := range spans {
			if sp.Root != root.ID {
				t.Errorf("%q span not in root %q's tree: %+v", phase, root.Name, sp)
			}
			if sp.Start < root.Start || sp.Start+sp.Dur > root.Start+root.Dur {
				t.Errorf("%q span [%v +%v] not contained in root [%v +%v]",
					phase, sp.Start, sp.Dur, root.Start, root.Dur)
			}
		}
	}
}

// TestRecoverSpansNestPhases is the tentpole's tracing acceptance at the
// package level: a cold recovery emits a root span with every phase of
// the pipeline (fetch, decode, hash verification, cache traffic) nested
// inside it, and a warm recovery shows the O(1) cache.get path.
func TestRecoverSpansNestPhases(t *testing.T) {
	stores := testStores(t)
	ba := NewBaseline(stores)
	ba.SetRecoveryCache(NewRecoveryCache(0))
	res, err := ba.Save(SaveInfo{Spec: tinySpec(), Net: tinyNet(t, 3), WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := RecoverOptions{VerifyChecksums: true}

	// Cold: full pipeline.
	byName, recs := spanTreeOf(t, func(ctx context.Context) {
		if _, err := ba.RecoverStateCtx(ctx, res.ID, opts); err != nil {
			t.Fatal(err)
		}
	})
	root := rootOf(t, byName, "recover")
	if root.Args["model"] != res.ID {
		t.Errorf("root span args = %v, want model=%s", root.Args, res.ID)
	}
	assertNestedUnder(t, byName, root,
		"cache.get", "fetch", "decode", "seal", "hash.verify", "cache.put")
	for _, r := range recs {
		if r.Name != root.Name && r.Parent != root.ID {
			t.Errorf("span %q has parent %d, want root %d", r.Name, r.Parent, root.ID)
		}
	}

	// Warm: only the cache probe.
	byName, _ = spanTreeOf(t, func(ctx context.Context) {
		if _, err := ba.RecoverStateCtx(ctx, res.ID, opts); err != nil {
			t.Fatal(err)
		}
	})
	root = rootOf(t, byName, "recover")
	assertNestedUnder(t, byName, root, "cache.get")
	for _, miss := range []string{"fetch", "decode", "hash.verify"} {
		if len(byName[miss]) != 0 {
			t.Errorf("warm recovery emitted a %q span; the hit path should skip it", miss)
		}
	}
}

// TestPUAChainSpans checks the chain-walk span shape: a derived recovery
// has one fetch span covering the walk and a decode span for the merge.
func TestPUAChainSpans(t *testing.T) {
	stores := testStores(t)
	pua := NewParamUpdate(stores)
	base, err := pua.Save(SaveInfo{Spec: tinySpec(), Net: tinyNet(t, 4), WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	net := tinyNet(t, 4)
	nn.StateDictOf(net).Entries()[0].Tensor.Data()[0] += 1
	derived, err := pua.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: base.ID, WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}

	byName, _ := spanTreeOf(t, func(ctx context.Context) {
		if _, err := pua.RecoverStateCtx(ctx, derived.ID, RecoverOptions{VerifyChecksums: true}); err != nil {
			t.Fatal(err)
		}
	})
	root := rootOf(t, byName, "recover")
	assertNestedUnder(t, byName, root, "fetch", "decode", "hash.verify")
	fetch := byName["fetch"][0]
	if fetch.Args["links"] != "2" {
		t.Errorf("fetch span links arg = %q, want 2", fetch.Args["links"])
	}

	// Save-side spans: a derived save shows the diff phase.
	byName, _ = spanTreeOf(t, func(ctx context.Context) {
		net2 := tinyNet(t, 4)
		nn.StateDictOf(net2).Entries()[0].Tensor.Data()[0] += 2
		if _, err := pua.SaveCtx(ctx, SaveInfo{Spec: tinySpec(), Net: net2, BaseID: base.ID}); err != nil {
			t.Fatal(err)
		}
	})
	root = rootOf(t, byName, "save")
	if root.Args["approach"] != ParamUpdateApproach {
		t.Errorf("save span args = %v, want approach=%s", root.Args, ParamUpdateApproach)
	}
	assertNestedUnder(t, byName, root, "diff", "save.params", "save.env", "save.doc")
}

// TestRecoverMetricsMove checks that the public entry points feed the
// shared registry: ops count, and the total histogram carries the TTR.
func TestRecoverMetricsMove(t *testing.T) {
	before := obs.Default().Snapshot()
	stores := testStores(t)
	ba := NewBaseline(stores)
	res, err := ba.Save(SaveInfo{Spec: tinySpec(), Net: tinyNet(t, 5)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := ba.RecoverState(res.ID, RecoverOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ba.RecoverState("no-such-model", RecoverOptions{}); err == nil {
		t.Fatal("expected recovery of unknown id to fail")
	}

	d := obs.Default().Snapshot().Delta(before)
	if d.Counters["core.save.ops"] < 1 {
		t.Errorf("core.save.ops delta = %d, want >= 1", d.Counters["core.save.ops"])
	}
	if d.Counters["core.recover.ops"] < 4 {
		t.Errorf("core.recover.ops delta = %d, want >= 4", d.Counters["core.recover.ops"])
	}
	if d.Counters["core.recover.errors"] < 1 {
		t.Errorf("core.recover.errors delta = %d, want >= 1", d.Counters["core.recover.errors"])
	}
	if h := d.Histograms["core.recover.total_us"]; h.Count < 3 {
		t.Errorf("core.recover.total_us count = %d, want >= 3", h.Count)
	}
}

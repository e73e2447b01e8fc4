package engine

import (
	"math/rand"
	"testing"

	"lightpath/internal/obs"
	"lightpath/internal/topo"
	"lightpath/internal/workload"
)

func spanTestEngine(t *testing.T) *Engine {
	t.Helper()
	nw, err := workload.Build(topo.NSFNET(), workload.Spec{
		K:         8,
		AvailProb: 0.6,
		Conv:      workload.ConvUniform,
		ConvCost:  0.3,
	}, rand.New(rand.NewSource(1998)))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(nw, &Options{CacheSize: nw.NumNodes()})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestCachedRouteFromSpannedAllocationFree is the ISSUE's acceptance
// gate for the tracing tentpole: threading a *disabled* recorder's span
// (nil) through the spanned query path must not cost a single
// allocation on a cache hit — the always-on flight recorder is free
// when off.
func TestCachedRouteFromSpannedAllocationFree(t *testing.T) {
	e := spanTestEngine(t)
	tracer := obs.NewTracer(&obs.TracerOptions{Disabled: true})
	snap := e.Snapshot()
	n := e.Base().NumNodes()
	for s := 0; s < n; s++ { // warm every source
		if _, err := snap.RouteFrom(s); err != nil {
			t.Fatal(err)
		}
	}
	src := 0
	allocs := testing.AllocsPerRun(100, func() {
		req := tracer.Start("request") // nil: recorder off
		if _, err := snap.RouteFromSpanned(src, req.Root()); err != nil {
			t.Fatal(err)
		}
		tracer.Finish(req)
		src = (src + 1) % n
	})
	if allocs != 0 {
		t.Fatalf("recorder-off spanned RouteFrom allocates %v objects per call, want 0", allocs)
	}
}

// TestRouteSpannedRecordsSearchSpans checks the span tree a recorded
// point-to-point query produces: engine_route → core_search with the
// Dijkstra counters and the per-λ expansion profile.
func TestRouteSpannedRecordsSearchSpans(t *testing.T) {
	e := spanTestEngine(t)
	tracer := obs.NewTracer(&obs.TracerOptions{SlowThreshold: -1})
	req := tracer.Start("request")
	res, err := e.Snapshot().RouteSpanned(0, 7, req.Root())
	if err != nil {
		t.Fatal(err)
	}
	tracer.Finish(req)

	er := req.Span("engine_route")
	if er == nil {
		t.Fatal("no engine_route span recorded")
	}
	if a, ok := er.Attr("epoch"); !ok || a.Int != 0 {
		t.Errorf("engine_route epoch attr = %+v ok=%v", a, ok)
	}
	cs := req.Span("core_search")
	if cs == nil {
		t.Fatal("no core_search span recorded")
	}
	if spans := req.Spans(); cs.Parent <= 0 || spans[cs.Parent].Name != "engine_route" {
		t.Errorf("core_search parent = %d, want the engine_route span", cs.Parent)
	}
	for _, key := range []string{"aux_nodes", "aux_arcs", "settled", "relaxed", "reached_per_lambda"} {
		if _, ok := cs.Attr(key); !ok {
			t.Errorf("core_search missing attr %q", key)
		}
	}
	if a, ok := cs.Attr("settled"); !ok || a.Int <= 0 {
		t.Errorf("settled = %+v, want > 0", a)
	}
	if a, ok := cs.Attr("cost"); !ok || a.Float != res.Cost {
		t.Errorf("cost attr = %+v, want %v", a, res.Cost)
	}
	if a, _ := cs.Attr("reached_per_lambda"); a.Str == "" {
		t.Error("reached_per_lambda empty on a served query")
	}
}

// TestRouteFromSpannedCacheLookupSpans: a cold pass records a cache
// miss plus a core_tree_search; a warm pass records a hit and no
// search.
func TestRouteFromSpannedCacheLookupSpans(t *testing.T) {
	e := spanTestEngine(t)
	tracer := obs.NewTracer(&obs.TracerOptions{SlowThreshold: -1})

	cold := tracer.Start("request")
	if _, err := e.Snapshot().RouteFromSpanned(3, cold.Root()); err != nil {
		t.Fatal(err)
	}
	tracer.Finish(cold)
	look := cold.Span("engine_cache_lookup")
	if look == nil {
		t.Fatal("no engine_cache_lookup span on cold pass")
	}
	if a, ok := look.Attr("hit"); !ok || a.Bool {
		t.Errorf("cold lookup hit attr = %+v ok=%v, want false", a, ok)
	}
	if cold.Span("core_tree_search") == nil {
		t.Error("cold pass must record the Dijkstra span")
	}

	warm := tracer.Start("request")
	if _, err := e.Snapshot().RouteFromSpanned(3, warm.Root()); err != nil {
		t.Fatal(err)
	}
	tracer.Finish(warm)
	if a, ok := warm.Span("engine_cache_lookup").Attr("hit"); !ok || !a.Bool {
		t.Errorf("warm lookup hit attr = %+v ok=%v, want true", a, ok)
	}
	if warm.Span("core_tree_search") != nil {
		t.Error("warm pass must not run Dijkstra")
	}
}

// TestRouteAndAllocateSpannedPublish: a successful allocation records
// engine_allocate (attempt 0) and the epoch publication under it.
func TestRouteAndAllocateSpannedPublish(t *testing.T) {
	e := spanTestEngine(t)
	tracer := obs.NewTracer(&obs.TracerOptions{SlowThreshold: -1})
	req := tracer.Start("request")
	owner := e.ReserveOwner()
	if _, err := e.RouteAndAllocateSpanned(owner, 0, 7, req.Root()); err != nil {
		t.Fatal(err)
	}
	alloc := req.Span("engine_allocate")
	if alloc == nil {
		t.Fatal("no engine_allocate span")
	}
	if a, ok := alloc.Attr("attempt"); !ok || a.Int != 0 {
		t.Errorf("attempt attr = %+v ok=%v", a, ok)
	}
	pub := req.Span("engine_publish")
	if pub == nil {
		t.Fatal("no engine_publish span")
	}
	if a, ok := pub.Attr("epoch"); !ok || a.Int != 1 {
		t.Errorf("publish epoch attr = %+v ok=%v, want 1", a, ok)
	}
	if a, ok := pub.Attr("mode"); !ok || (a.Str != "delta" && a.Str != "full") {
		t.Errorf("publish mode attr = %+v ok=%v", a, ok)
	}

	// Release under a fresh request span.
	rel := tracer.Start("request")
	if err := e.ReleaseSpanned(owner, rel.Root()); err != nil {
		t.Fatal(err)
	}
	tracer.Finish(rel)
	if rel.Span("engine_release") == nil || rel.Span("engine_publish") == nil {
		t.Error("release must record engine_release and engine_publish spans")
	}
}

// TestSpannedVariantsNilParent: every spanned method accepts a nil
// parent, which is what its unspanned form passes.
func TestSpannedVariantsNilParent(t *testing.T) {
	e := spanTestEngine(t)
	if _, err := e.Snapshot().RouteSpanned(0, 7, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Snapshot().RouteFromSpanned(0, nil); err != nil {
		t.Fatal(err)
	}
	owner := e.ReserveOwner()
	if _, err := e.RouteAndAllocateSpanned(owner, 0, 7, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.ReleaseSpanned(owner, nil); err != nil {
		t.Fatal(err)
	}
}

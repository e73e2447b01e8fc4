package engine

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"lightpath/internal/core"
	"lightpath/internal/obs"
	"lightpath/internal/topo"
	"lightpath/internal/workload"
)

func obsTestEngine(t *testing.T, seed int64) *Engine {
	t.Helper()
	nw, err := workload.Build(topo.NSFNET(), workload.Spec{
		K:         6,
		AvailProb: 0.7,
		Conv:      workload.ConvUniform,
		ConvCost:  0.3,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(nw, &Options{CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// tracedRoute runs one query on snap under a private span tree and
// reads its anatomy back — the data wdmserve's explain renders.
func tracedRoute(snap *Snapshot, s, d int) (*core.Result, RouteAnatomy, error) {
	req := obs.NewReqTrace("request")
	res, err := snap.RouteSpanned(s, d, req.Root())
	return res, ReadRouteAnatomy(req), err
}

// TestTraceBreakdownSumsToCost is the explain-correctness contract at
// the span-tree level: for every pair the network can route, the
// per-hop link weights plus conversion costs of the path's Eq. (1)
// breakdown on the pinned snapshot sum to the route's cost, the
// anatomy read back from the span tree is filled in and pinned to the
// engine's epoch, and blocked queries read back as blocked.
func TestTraceBreakdownSumsToCost(t *testing.T) {
	e := obsTestEngine(t, 9)
	snap := e.Snapshot()
	n := e.Base().NumNodes()
	checked := 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			res, an, err := tracedRoute(snap, s, d)
			if an.Epoch != e.Epoch() || an.Routes != 1 {
				t.Fatalf("%d->%d: anatomy pinned epoch %d over %d routes, engine at %d", s, d, an.Epoch, an.Routes, e.Epoch())
			}
			if errors.Is(err, core.ErrNoRoute) {
				if !an.Blocked {
					t.Fatalf("%d->%d: blocked route's anatomy not marked Blocked", s, d)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%d->%d: %v", s, d, err)
			}
			legs := res.Path.Breakdown(snap.Network())
			links, convs := 0.0, 0.0
			for _, leg := range legs {
				links += leg.LinkCost
				convs += leg.ConvCost
			}
			if math.Abs(links+convs-res.Cost) > 1e-9 {
				t.Fatalf("%d->%d: breakdown links %v + conversions %v = %v, route cost %v",
					s, d, links, convs, links+convs, res.Cost)
			}
			if len(legs) != res.Path.Len() {
				t.Fatalf("%d->%d: breakdown has %d hops, path %d", s, d, len(legs), res.Path.Len())
			}
			if last := legs[len(legs)-1]; math.Abs(last.Cumulative-res.Cost) > 1e-9 {
				t.Fatalf("%d->%d: last cumulative %v != cost %v", s, d, last.Cumulative, res.Cost)
			}
			taken, avail := snap.Aux().PathConversions(res.Path)
			if got := len(res.Path.Conversions(e.Base())); got != taken {
				t.Fatalf("%d->%d: %d conversions taken, path has %d", s, d, taken, got)
			}
			if avail < taken {
				t.Fatalf("%d->%d: %d conversions taken but only %d available", s, d, taken, avail)
			}
			if an.Blocked || an.Search != res.Stats || an.Search.Settled <= 0 || an.Search.Relaxed <= 0 ||
				an.Search.AuxNodes <= 0 || an.Search.AuxArcs <= 0 {
				t.Fatalf("%d->%d: search anatomy %+v, result stats %+v", s, d, an, res.Stats)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no routable pairs checked")
	}
}

// TestTraceCacheHitFlag: TreeCached must reflect SourceTree residency
// for (source, epoch) without perturbing the cache counters.
func TestTraceCacheHitFlag(t *testing.T) {
	e := obsTestEngine(t, 10)
	if e.TreeCached(0, e.Epoch()) {
		t.Fatal("cold cache reported as hit")
	}
	before := e.CacheStats()
	if _, err := e.RouteFrom(0); err != nil { // populates (0, epoch)
		t.Fatal(err)
	}
	if !e.TreeCached(0, e.Epoch()) {
		t.Fatal("resident SourceTree not reported as cache hit")
	}
	if e.TreeCached(0, e.Epoch()+1) {
		t.Fatal("tree of another epoch reported as cache hit")
	}
	after := e.CacheStats()
	if after.Lookups != before.Lookups+1 {
		t.Fatalf("peeking changed lookup count beyond the one RouteFrom: %d -> %d",
			before.Lookups, after.Lookups)
	}
}

// TestReadRouteAnatomyWithoutSearch: queries that never reach a core
// search — the trivial s == s path and a node out of range — read back
// with zero search counters, not blocked, still pinned to the epoch.
func TestReadRouteAnatomyWithoutSearch(t *testing.T) {
	e := obsTestEngine(t, 14)
	snap := e.Snapshot()
	for _, q := range [][2]int{{3, 3}, {0, 99}} {
		_, an, _ := tracedRoute(snap, q[0], q[1])
		if an.Routes != 1 || an.Epoch != snap.Epoch() || an.Blocked || an.Search != (core.SearchStats{}) {
			t.Fatalf("%d->%d: anatomy %+v, want one unblocked route with zero search", q[0], q[1], an)
		}
	}
	if an := ReadRouteAnatomy(obs.NewReqTrace("request")); an != (RouteAnatomy{}) {
		t.Fatalf("empty tree reads as %+v", an)
	}
}

// TestMetricsCountersTrackWork: the registry's hot-path counters and
// histograms must reconcile with the work actually submitted.
func TestMetricsCountersTrackWork(t *testing.T) {
	e := obsTestEngine(t, 11)
	reg := e.Metrics()

	const routes = 20
	blocked := 0
	for i := 0; i < routes; i++ {
		if _, err := e.Route(i%14, (i+3)%14); errors.Is(err, core.ErrNoRoute) {
			blocked++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if got := snap["engine_routes_total"].(uint64); got != routes {
		t.Fatalf("engine_routes_total = %d, want %d", got, routes)
	}
	if got := snap["engine_routes_blocked_total"].(uint64); got != uint64(blocked) {
		t.Fatalf("engine_routes_blocked_total = %d, want %d", got, blocked)
	}
	if hist := e.metrics.routeLatency.Count(); hist != routes {
		t.Fatalf("route latency histogram has %d observations, want %d", hist, routes)
	}

	// A batch: requests counter rises by the batch size, in-flight
	// drains back to zero.
	reqs := []Request{{0, 9}, {0, 13}, {5, 2}, {7, 11}}
	e.RouteBatch(reqs, 2)
	snap = reg.Snapshot()
	if got := snap["engine_batch_requests_total"].(uint64); got != uint64(len(reqs)) {
		t.Fatalf("engine_batch_requests_total = %d, want %d", got, len(reqs))
	}
	if got := snap["engine_batch_inflight"].(int64); got != 0 {
		t.Fatalf("engine_batch_inflight = %d after batch drained, want 0", got)
	}

	// Mutations: epoch gauge and rebuild histogram move together.
	if _, err := e.RouteAndAllocate(1, 0, 9); err != nil {
		t.Fatal(err)
	}
	if err := e.Release(1); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	if got := snap["engine_epoch"].(float64); got != float64(e.Epoch()) {
		t.Fatalf("engine_epoch gauge = %v, engine at %d", got, e.Epoch())
	}
	// Every publish lands on exactly one of the two latency histograms:
	// full compiles on engine_rebuild_latency_ns, incremental applies on
	// engine_delta_latency_ns. Together they reconcile with the epoch.
	full, delta := e.metrics.rebuildLatency.Count(), e.metrics.deltaLatency.Count()
	if full+delta != uint64(e.Epoch())+1 {
		t.Fatalf("rebuild(%d) + delta(%d) histogram observations, want epoch %d + 1", full, delta, e.Epoch())
	}
	// The epoch-0 compile is always full; the allocate/release churn
	// above is delta-expressible and must have taken the fast path.
	if full < 1 {
		t.Fatalf("rebuild histogram has %d observations, want the epoch-0 compile", full)
	}
	if delta != uint64(e.Epoch()) {
		t.Fatalf("delta histogram has %d observations, want %d (one per mutation)", delta, e.Epoch())
	}
	if got := snap["engine_allocations_total"].(float64); got != 1 {
		t.Fatalf("engine_allocations_total = %v, want 1", got)
	}

	// Per-wavelength gauges exist for every installed color and are all
	// zero with nothing held.
	for lam := 0; lam < e.Base().K(); lam++ {
		name := "wavelength_" + string(rune('0'+lam)) + "_held"
		v, ok := snap[name]
		if !ok {
			t.Fatalf("registry missing %s", name)
		}
		if v.(float64) != 0 {
			t.Fatalf("%s = %v with nothing held", name, v)
		}
	}
}

// TestPerWavelengthUtilizationGauges: holding a path moves exactly the
// gauges of the wavelengths it uses.
func TestPerWavelengthUtilizationGauges(t *testing.T) {
	e := obsTestEngine(t, 12)
	res, err := e.RouteAndAllocate(1, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	perLam := make(map[int]int)
	for _, h := range res.Path.Hops {
		perLam[int(h.Wavelength)]++
	}
	for lam := 0; lam < e.Base().K(); lam++ {
		if got := e.heldOnWavelength(lam); got != perLam[lam] {
			t.Fatalf("λ%d: gauge %d, path holds %d", lam, got, perLam[lam])
		}
	}
}

// TestRouteAndAllocateSpannedRecordsAttempts: a clean first-try
// allocation records exactly one attempt and no retry counter motion.
func TestRouteAndAllocateSpannedRecordsAttempts(t *testing.T) {
	e := obsTestEngine(t, 13)
	req := obs.NewReqTrace("request")
	if _, err := e.RouteAndAllocateSpanned(1, 0, 9, req.Root()); err != nil {
		t.Fatal(err)
	}
	if an := ReadRouteAnatomy(req); an.Attempts != 1 || an.Routes != 1 || an.Epoch != 0 {
		t.Fatalf("anatomy = %+v, want 1 attempt routed at epoch 0", an)
	}
	if got := e.Metrics().Snapshot()["engine_alloc_retries_total"].(uint64); got != 0 {
		t.Fatalf("engine_alloc_retries_total = %d on a conflict-free allocate", got)
	}
}

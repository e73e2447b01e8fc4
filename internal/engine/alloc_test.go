package engine

import (
	"math/rand"
	"testing"

	"lightpath/internal/core"
	"lightpath/internal/topo"
	"lightpath/internal/workload"
)

// TestCachedRouteFromAllocationFree pins the steady-state query contract
// the ISSUE's perf work establishes: a SourceTree cache hit at a stable
// epoch performs zero heap allocations. A regression here (a closure
// that escapes, per-call options, key boxing) lands on the latency path
// of every cached query, so it fails a test, not just a benchmark.
func TestCachedRouteFromAllocationFree(t *testing.T) {
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
	snap := e.Snapshot()
	n := nw.NumNodes()
	for s := 0; s < n; s++ { // warm every source
		if _, err := snap.RouteFrom(s); err != nil {
			t.Fatal(err)
		}
	}
	src := 0
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := snap.RouteFrom(src); err != nil {
			t.Fatal(err)
		}
		src = (src + 1) % n
	})
	if allocs != 0 {
		t.Fatalf("cache-hit RouteFrom allocates %v objects per call, want 0", allocs)
	}
}

// TestRouteAllocatesNoMoreThanCore pins the untraced point query: with
// a nil span, Snapshot.Route must allocate no more objects per call than
// core.Aux.Route run with the snapshot's own options — the engine layer
// (metrics, span plumbing, options) adds nothing to the heap, so no
// per-call Options copy may escape on the nil-span path.
func TestRouteAllocatesNoMoreThanCore(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector, so pooled allocation counts vary")
	}
	for _, mode := range []core.DirectedMode{core.DirectedPlain, core.DirectedBidi, core.DirectedALT} {
		e, err := New(spanTestEngine(t).Base(), &Options{Directed: mode})
		if err != nil {
			t.Fatal(err)
		}
		snap := e.Snapshot()
		n := e.Base().NumNodes()
		pairs := make([][2]int, 0, n*n)
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s != d {
					pairs = append(pairs, [2]int{s, d})
				}
			}
		}
		count := func(route func(s, d int)) float64 {
			i := 0
			return testing.AllocsPerRun(len(pairs), func() {
				route(pairs[i%len(pairs)][0], pairs[i%len(pairs)][1])
				i++
			})
		}
		coreAllocs := count(func(s, d int) { _, _ = snap.Aux().Route(s, d, snap.opts()) })
		engAllocs := count(func(s, d int) { _, _ = snap.Route(s, d) })
		if engAllocs > coreAllocs {
			t.Errorf("%v: Snapshot.Route allocates %v objects per call, core.Aux.Route %v", mode, engAllocs, coreAllocs)
		}
	}
}

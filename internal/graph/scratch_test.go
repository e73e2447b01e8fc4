package graph

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// sameTree reports where two trees differ: every Dist (bit-for-bit, so
// +Inf must match +Inf), Parent and ViaArc entry plus the work counters.
func sameTree(t *testing.T, label string, got, want *ShortestPathTree) {
	t.Helper()
	if len(got.Dist) != len(want.Dist) {
		t.Fatalf("%s: %d nodes, want %d", label, len(got.Dist), len(want.Dist))
	}
	for v := range want.Dist {
		if math.Float64bits(got.Dist[v]) != math.Float64bits(want.Dist[v]) ||
			got.Parent[v] != want.Parent[v] || got.ViaArc[v] != want.ViaArc[v] {
			t.Fatalf("%s: node %d = (%v, %d, %d), want (%v, %d, %d)", label, v,
				got.Dist[v], got.Parent[v], got.ViaArc[v], want.Dist[v], want.Parent[v], want.ViaArc[v])
		}
	}
	if got.Settled != want.Settled || got.Relaxed != want.Relaxed {
		t.Fatalf("%s: settled/relaxed %d/%d, want %d/%d", label, got.Settled, got.Relaxed, want.Settled, want.Relaxed)
	}
}

// TestPooledScratchKernelSequence runs the four scratch kernels — bidi,
// binary plain, Fibonacci plain (a pointer-heap queue) and A* — in a
// shuffled order on one pooled forward scratch. Every tree must equal
// the tree the same kernel computes on a fresh scratch: a kernel that
// writes a node without listing it, or a touched-list reset that misses
// an entry, leaves stale state in the pooled arrays.
func TestPooledScratchKernelSequence(t *testing.T) {
	const n = 120
	g := buildRandom(t, n, 480, 21)
	rev := g.Reverse()
	scF, scB := NewScratch(n), NewScratch(n)
	rng := rand.New(rand.NewSource(22))
	kernels := []string{"bidi", "binary", "fibonacci", "astar"}
	for trial := 0; trial < 60; trial++ {
		seeds := []int{rng.Intn(n), rng.Intn(n)}
		goals := []int{rng.Intn(n), rng.Intn(n)}
		pot := exactPotential(t, g, goals)
		rng.Shuffle(len(kernels), func(i, j int) { kernels[i], kernels[j] = kernels[j], kernels[i] })
		for _, k := range kernels {
			switch k {
			case "bidi":
				fresh, err := BidirectionalDijkstraScratch(g, rev, seeds, goals, NewScratch(n), NewScratch(n))
				if err != nil {
					t.Fatal(err)
				}
				pooled, err := BidirectionalDijkstraScratch(g, rev, seeds, goals, scF, scB)
				if err != nil {
					t.Fatal(err)
				}
				if pooled.Meet != fresh.Meet {
					t.Fatalf("trial %d bidi: meet %d, want %d", trial, pooled.Meet, fresh.Meet)
				}
				sameTree(t, k+" fwd", pooled.Fwd, fresh.Fwd)
				sameTree(t, k+" bwd", pooled.Bwd, fresh.Bwd)
				continue
			case "astar":
				fresh, err := AStarSeedsUntilScratch(g, seeds, goals, pot, NewScratch(n))
				if err != nil {
					t.Fatal(err)
				}
				pooled, err := AStarSeedsUntilScratch(g, seeds, goals, pot, scF)
				if err != nil {
					t.Fatal(err)
				}
				sameTree(t, k, pooled, fresh)
				continue
			}
			kind := QueueBinary
			if k == "fibonacci" {
				kind = QueueFibonacci
			}
			fresh, err := DijkstraSeedsUntilScratch(g, seeds, goals, kind, NewScratch(n))
			if err != nil {
				t.Fatal(err)
			}
			pooled, err := DijkstraSeedsUntilScratch(g, seeds, goals, kind, scF)
			if err != nil {
				t.Fatal(err)
			}
			sameTree(t, k, pooled, fresh)
		}
	}
}

// TestForEachReachedVisitsFiniteDist: ForEachReached visits each node
// with a finite distance exactly once, and no other node, on
// scratch-backed trees (touched list) from the binary, Fibonacci and A*
// kernels, and on freshly allocated trees (Dist scan).
func TestForEachReachedVisitsFiniteDist(t *testing.T) {
	const n = 150
	g := buildRandom(t, n, 300, 23)
	sc := NewScratch(n)
	seeds, goals := []int{0, 7}, []int{90}
	trees := map[string]func() (*ShortestPathTree, error){
		"binary scratch": func() (*ShortestPathTree, error) { return DijkstraSeedsUntilScratch(g, seeds, goals, QueueBinary, sc) },
		"fibonacci scratch": func() (*ShortestPathTree, error) {
			return DijkstraSeedsUntilScratch(g, seeds, goals, QueueFibonacci, sc)
		},
		"astar scratch": func() (*ShortestPathTree, error) {
			return AStarSeedsUntilScratch(g, seeds, goals, ZeroPotential, sc)
		},
		"fresh":      func() (*ShortestPathTree, error) { return DijkstraSeedsUntil(g, seeds, goals, QueueBinary) },
		"fresh full": func() (*ShortestPathTree, error) { return DijkstraSeeds(g, seeds, -1, QueueBinary) },
	}
	for name, run := range trees {
		tree, err := run()
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]int, n)
		tree.ForEachReached(func(v int) { seen[v]++ })
		reached := 0
		for v := 0; v < n; v++ {
			want := 0
			if Finite(tree.Dist[v]) {
				want = 1
				reached++
			}
			if seen[v] != want {
				t.Fatalf("%s: node %d visited %d times, dist %v", name, v, seen[v], tree.Dist[v])
			}
		}
		if reached < 2 {
			t.Fatalf("%s: only %d nodes reached; the fixture exercises nothing", name, reached)
		}
	}
}

// TestBidirectionalBlockedStopsEarly: when the goal's in-set is tiny and
// cut off from the seeds while the seeds reach most of the graph, the
// backward frontier exhausts almost at once with µ = ∞. The search must
// answer blocked and stop there instead of running the forward side to
// exhaustion.
func TestBidirectionalBlockedStopsEarly(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(24))
	g := New(n)
	// Nodes 0..n-3 form a ring plus random chords: node 0 reaches all
	// of them. Node n-2 feeds the goal n-1 and nothing feeds node n-2.
	for u := 0; u < n-2; u++ {
		mustArc(t, g, u, (u+1)%(n-2), rng.Float64()+0.1)
		mustArc(t, g, u, rng.Intn(n-2), rng.Float64()*5)
	}
	mustArc(t, g, n-2, n-1, 1)
	mustArc(t, g, n-1, 0, 1) // the goal leads back into the ring
	seeds, goals := []int{0}, []int{n - 1}
	forwardReach := 0
	for _, ok := range g.ReachableFrom(0) {
		if ok {
			forwardReach++
		}
	}
	rev := g.Reverse()
	for _, pooled := range []bool{false, true} {
		var scF, scB *Scratch
		if pooled {
			scF, scB = NewScratch(n), NewScratch(n)
		}
		bt, err := BidirectionalDijkstraScratch(g, rev, seeds, goals, scF, scB)
		if err != nil {
			t.Fatal(err)
		}
		if bt.Reached() || bt.Meet != -1 || !IsInf(bt.Cost()) {
			t.Fatalf("pooled=%v: blocked query answered meet %d cost %v", pooled, bt.Meet, bt.Cost())
		}
		if bt.Settled >= forwardReach {
			t.Fatalf("pooled=%v: bidi settled %d nodes, forward reach is %d: no early stop", pooled, bt.Settled, forwardReach)
		}
	}
	plain, err := DijkstraSeedsUntil(g, seeds, goals, QueueBinary)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Reached(n - 1) {
		t.Fatal("fixture is not blocked under plain search")
	}
}

// TestReverseIsCompactTranspose: Reverse matches the arc-by-arc append
// transpose segment for segment (order included), lays its segments
// back to back in one arena, keeps each segment capped so AddArc on the
// reverse cannot overwrite a neighbour, and allocates a fixed number of
// objects whatever the graph size.
func TestReverseIsCompactTranspose(t *testing.T) {
	g := buildRandom(t, 80, 600, 25)
	mustTaggedArc(t, g, 3, 9, 1.5, 70) // parallel arcs with distinct tags
	mustTaggedArc(t, g, 3, 9, 1.5, 71)
	want := make([][]Arc, g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		for _, a := range g.Out(u) {
			want[a.To] = append(want[a.To], Arc{To: int32(u), Weight: a.Weight, Tag: a.Tag})
		}
	}
	r := g.Reverse()
	if r.NumArcs() != g.NumArcs() {
		t.Fatalf("reverse has %d arcs, want %d", r.NumArcs(), g.NumArcs())
	}
	var prevEnd uintptr
	for v := 0; v < r.NumNodes(); v++ {
		out := r.Out(v)
		if !sameArcs(out, want[v]) {
			t.Fatalf("reverse Out(%d) = %+v, want %+v", v, out, want[v])
		}
		if cap(out) != len(out) {
			t.Fatalf("reverse Out(%d) has spare capacity %d", v, cap(out)-len(out))
		}
		if len(out) > 0 {
			start := uintptr(unsafe.Pointer(&out[0]))
			if prevEnd != 0 && start != prevEnd {
				t.Fatalf("reverse Out(%d) does not follow the previous segment in the arena", v)
			}
			prevEnd = start + uintptr(len(out))*unsafe.Sizeof(Arc{})
		}
	}
	before := append([]Arc(nil), r.Out(10)...)
	mustArc(t, r, 9, 0, 1)
	if !sameArcs(r.Out(10), before) {
		t.Fatal("AddArc on the reverse corrupted the next segment")
	}
	if allocs := testing.AllocsPerRun(5, func() { _ = g.Reverse() }); allocs > 5 {
		t.Fatalf("Reverse allocates %v objects on %d arcs, want a fixed handful", allocs, g.NumArcs())
	}
}

// TestArcPacks16Bytes: Weight leads so the two int32 fields share one
// word; every graph arena and adjacency copy is sized by this.
func TestArcPacks16Bytes(t *testing.T) {
	if size := unsafe.Sizeof(Arc{}); size != 16 {
		t.Fatalf("Arc is %d bytes, want 16", size)
	}
}

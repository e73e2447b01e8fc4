package graph

import (
	"fmt"

	"lightpath/internal/heap/binheap"
)

// Scratch is the reusable state of one Dijkstra pass over a graph of a
// fixed node count: the distance/parent/via arrays of the result tree,
// the settled set, the binary-heap backing store and the goal-set
// bookkeeping. Query layers pool Scratch values (one pool per graph
// size) so a steady stream of point queries performs zero heap
// allocation inside the search.
//
// Resetting between queries costs what the last query touched, not n:
// every kernel writes the scratch-backed tree through
// ShortestPathTree.reach, which lists each node it gives a finite
// distance, and only those entries are restored.
//
// A Scratch serves one query at a time; the tree returned by
// DijkstraSeedsUntilScratch aliases the scratch and is invalidated by
// the next query on the same scratch. It is not safe for concurrent
// use — concurrency comes from pooling, not sharing.
type Scratch struct {
	n      int
	dist   []float64
	parent []int32
	via    []int32
	done   []bool
	heap   *binheap.Heap

	goalMark []bool
	pending  int
	stop     func(int) bool // prebuilt goal-set stop; closes over this Scratch

	tree ShortestPathTree
}

// NewScratch returns scratch state for graphs of exactly n nodes.
func NewScratch(n int) *Scratch {
	sc := &Scratch{
		n:        n,
		dist:     make([]float64, n),
		parent:   make([]int32, n),
		via:      make([]int32, n),
		done:     make([]bool, n),
		heap:     binheap.New(n),
		goalMark: make([]bool, n),
	}
	// Start in the unreached state; from here on reset only restores
	// what each query touched.
	for i := range sc.dist {
		sc.dist[i] = Inf
		sc.parent[i] = -1
		sc.via[i] = -1
	}
	// Built once so per-query goal tracking allocates no closure.
	sc.stop = func(u int) bool {
		if sc.goalMark[u] {
			sc.goalMark[u] = false
			sc.pending--
		}
		return sc.pending == 0
	}
	return sc
}

// Nodes reports the graph size this scratch serves.
func (sc *Scratch) Nodes() int { return sc.n }

// reset restores dist/parent/via/done to the unreached state by
// undoing only the entries the previous query touched.
func (sc *Scratch) reset() {
	for _, v := range sc.tree.touched {
		sc.dist[v] = Inf
		sc.parent[v] = -1
		sc.via[v] = -1
		sc.done[v] = false
	}
	sc.tree.touched = sc.tree.touched[:0]
	sc.heap.Reset()
}

// seedTree initializes the scratch-backed tree for the given seeds,
// mirroring newSeedTree without allocating. The tree is tracked: every
// kernel records its touches through ShortestPathTree.reach.
func (sc *Scratch) seedTree(seeds []int) (*ShortestPathTree, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("%w: no seeds", ErrNodeRange)
	}
	for _, s := range seeds {
		if s < 0 || s >= sc.n {
			return nil, fmt.Errorf("%w: seed %d", ErrNodeRange, s)
		}
	}
	sc.reset()
	t := &sc.tree
	t.Source = -1
	if len(seeds) == 1 {
		t.Source = seeds[0]
	}
	t.Dist, t.Parent, t.ViaArc = sc.dist, sc.parent, sc.via
	t.Settled, t.Relaxed = 0, 0
	t.seeds = seeds
	t.tracked = true
	for _, s := range seeds {
		if IsInf(sc.dist[s]) {
			t.touched = append(t.touched, int32(s))
		}
		sc.dist[s] = 0
	}
	return t, nil
}

// DijkstraSeedsUntilScratch is DijkstraSeedsUntil computing into sc
// instead of freshly allocated state. The returned tree aliases sc: it
// is valid until the next query on the same scratch and must not be
// retained (retainable trees come from DijkstraSeeds). A nil or
// wrong-sized scratch falls back to the allocating path, so callers can
// pass through whatever their pool handed them.
//
// The binary queue reuses the scratch's heap and settled set; the other
// queue kinds reuse the tree arrays but keep their own pointer-based
// structures (their handle graphs cannot be recycled flatly). All of
// them list their touches, so the next reset stays O(touched).
func DijkstraSeedsUntilScratch(g *Digraph, seeds, goals []int, kind QueueKind, sc *Scratch) (*ShortestPathTree, error) {
	if sc == nil || sc.n != g.NumNodes() {
		return DijkstraSeedsUntil(g, seeds, goals, kind)
	}
	for _, gl := range goals {
		if gl < 0 || gl >= sc.n {
			return nil, fmt.Errorf("%w: goal %d", ErrNodeRange, gl)
		}
	}
	t, err := sc.seedTree(seeds)
	if err != nil {
		return nil, err
	}
	var stop func(int) bool
	if len(goals) > 0 {
		sc.pending = 0
		for _, gl := range goals {
			if !sc.goalMark[gl] {
				sc.goalMark[gl] = true
				sc.pending++
			}
		}
		stop = sc.stop
	}
	switch kind {
	case QueueBinary:
		err = dijkstraBinInto(g, t, stop, sc.heap, sc.done)
	default:
		err = runEngine(g, t, stop, kind)
	}
	// An exhausted search (unreachable goals) leaves marks set; clear
	// them so the next query starts clean. Early exit cleared them all.
	for _, gl := range goals {
		sc.goalMark[gl] = false
	}
	sc.pending = 0
	return t, err
}

package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"lightpath/internal/graph"
	"lightpath/internal/wdm"
)

// SourceTree is the result of one single-source run: the shortest
// semilightpaths from a fixed source to every reachable node, backed by
// the shortest-path tree of G_{s,·} (the G_all construction restricted to
// one super source, Corollary 1).
type SourceTree struct {
	aux    *Aux
	source int
	tree   *graph.ShortestPathTree
	// bestX[t] is the argmin aux node over X_t, or -1 when unreachable.
	bestX []int32
	dist  []float64
}

// Source reports the tree's source node.
func (st *SourceTree) Source() int { return st.source }

// Dist reports the optimal semilightpath cost from the source to t
// (0 for t == source, +Inf when unreachable).
func (st *SourceTree) Dist(t int) float64 {
	if t == st.source {
		return 0
	}
	return st.dist[t]
}

// Reachable reports whether t can be reached from the source.
func (st *SourceTree) Reachable(t int) bool {
	return t == st.source || graph.Finite(st.dist[t])
}

// PathTo extracts the optimal semilightpath from the source to t.
func (st *SourceTree) PathTo(t int) (*wdm.Semilightpath, error) {
	if t < 0 || t >= st.aux.nw.NumNodes() {
		return nil, fmt.Errorf("%w: dest %d", ErrNodeRange, t)
	}
	if t == st.source {
		return &wdm.Semilightpath{}, nil
	}
	if st.bestX[t] < 0 {
		return nil, fmt.Errorf("%w: from %d to %d", ErrNoRoute, st.source, t)
	}
	return st.aux.extractPath(st.tree, int(st.bestX[t]))
}

// RouteFrom computes optimal semilightpaths from s to every node in one
// Dijkstra pass over G_{s,·} — the building block of Corollary 1's
// all-pairs algorithm. Safe for concurrent use on one Aux.
func (a *Aux) RouteFrom(s int, opts *Options) (*SourceTree, error) {
	if s < 0 || s >= a.nw.NumNodes() {
		return nil, fmt.Errorf("%w: source %d", ErrNodeRange, s)
	}
	n := a.nw.NumNodes()
	sp := opts.span().StartChild(spanTreeSearch)
	defer sp.End()
	seeds := a.sourceSeeds(s)
	if len(seeds) == 0 {
		sp.SetBool(attrBlocked, true)
		// No outgoing channels: only s itself is reachable.
		st := &SourceTree{aux: a, source: s, bestX: make([]int32, n), dist: make([]float64, n)}
		for t := range st.dist {
			st.bestX[t] = -1
			st.dist[t] = graph.Inf
		}
		return st, nil
	}
	tree, err := graph.DijkstraSeeds(a.g, seeds, -1, opts.queue())
	if err != nil {
		return nil, fmt.Errorf("core: dijkstra: %w", err)
	}
	if sp != nil {
		sp.SetInt(attrAuxNodes, int64(a.NumAuxNodes()+1)) // plus the virtual super source
		sp.SetInt(attrAuxArcs, int64(a.g.NumArcs()))
		sp.SetInt(attrSettled, int64(tree.Settled))
		sp.SetInt(attrRelaxed, int64(tree.Relaxed))
		sp.SetStr(attrReachedPerLambda, a.reachedPerLambda(tree))
	}
	st := &SourceTree{
		aux:    a,
		source: s,
		tree:   tree,
		bestX:  make([]int32, n),
		dist:   make([]float64, n),
	}
	for t := 0; t < n; t++ {
		st.bestX[t] = -1
		st.dist[t] = graph.Inf
		for xi := range a.xLambdas[t] {
			x := int(a.xStart[t]) + xi
			if tree.Dist[x] < st.dist[t] {
				st.dist[t] = tree.Dist[x]
				st.bestX[t] = int32(x)
			}
		}
	}
	return st, nil
}

// AllPairsResult holds the optimal semilightpath cost between every
// ordered node pair. Costs[s][t] is 0 on the diagonal and +Inf when t is
// unreachable from s.
type AllPairsResult struct {
	Costs [][]float64
}

// AllPairs computes optimal semilightpath costs between all ordered node
// pairs by running one single-source pass per node over the shared
// auxiliary graph — the G_all algorithm of Corollary 1, with total cost
// O(k²n² + kmn + kn²·log(kn)).
func (a *Aux) AllPairs(opts *Options) (*AllPairsResult, error) {
	return a.AllPairsParallel(opts, 1)
}

// AllPairsParallel is AllPairs with the n single-source passes spread
// over the given number of worker goroutines — the passes are
// independent reads of the immutable auxiliary graph, so this is a pure
// speedup. workers ≤ 0 selects GOMAXPROCS.
func (a *Aux) AllPairsParallel(opts *Options, workers int) (*AllPairsResult, error) {
	n := a.nw.NumNodes()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	res := &AllPairsResult{Costs: make([][]float64, n)}

	var (
		wg      sync.WaitGroup
		next    atomic.Int64
		failure atomic.Pointer[error]
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1)) - 1
				if s >= n || failure.Load() != nil {
					return
				}
				st, err := a.RouteFrom(s, opts)
				if err != nil {
					err = fmt.Errorf("core: all-pairs from %d: %w", s, err)
					failure.CompareAndSwap(nil, &err)
					return
				}
				row := make([]float64, n)
				for t := 0; t < n; t++ {
					row[t] = st.Dist(t)
				}
				res.Costs[s] = row
			}
		}()
	}
	wg.Wait()
	if errp := failure.Load(); errp != nil {
		return nil, *errp
	}
	return res, nil
}

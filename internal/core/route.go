package core

import (
	"fmt"

	"lightpath/internal/graph"
	"lightpath/internal/obs"
	"lightpath/internal/wdm"
)

// Options configures a routing query.
type Options struct {
	// Queue selects the priority structure for Dijkstra. The zero value
	// means graph.QueueFibonacci, the structure Theorem 1's bound cites.
	// Only DirectedPlain consults it: the goal-directed kernels run on
	// the binary-heap engine by construction.
	Queue graph.QueueKind

	// Directed selects the point-query search strategy (plain,
	// bidirectional, or ALT). All modes return the same optimal cost —
	// differential-tested across every topology fixture — and differ only
	// in settled-node counts. Full-tree queries (RouteFrom, AllPairs)
	// ignore it: a tree wants the whole graph settled.
	Directed DirectedMode

	// Potential supplies goal-distance lower bounds for DirectedALT
	// queries (typically engine-managed landmarks). Nil, or a source that
	// declines the query, degrades DirectedALT to DirectedBidi.
	Potential PotentialSource

	// Span, when non-nil, is the parent under which the query opens its
	// own timed child span (core_search for Route, core_tree_search for
	// RouteFrom) annotated with the search's work counters and per-λ
	// expansion profile. A nil Span — the default, and what a disabled
	// request tracer yields — costs nothing: every span call is
	// nil-receiver safe and the annotation work is skipped entirely.
	Span *obs.Span
}

func (o *Options) queue() graph.QueueKind {
	if o == nil || o.Queue == 0 {
		return graph.QueueFibonacci
	}
	return o.Queue
}

func (o *Options) directed() DirectedMode {
	if o == nil {
		return DirectedPlain
	}
	return o.Directed
}

func (o *Options) potential() PotentialSource {
	if o == nil {
		return nil
	}
	return o.Potential
}

func (o *Options) span() *obs.Span {
	if o == nil {
		return nil
	}
	return o.Span
}

// SearchStats reports work counters of one shortest-path query.
type SearchStats struct {
	AuxNodes int // |V'_{s,t}| (gadget nodes + super terminals)
	AuxArcs  int // |E'_{s,t}|
	Settled  int // Dijkstra pops
	Relaxed  int // arc relaxations
}

// Result is an optimal semilightpath together with its cost and the
// per-query statistics. Cost is exactly Path.Cost(network).
type Result struct {
	Path   *wdm.Semilightpath
	Cost   float64
	Source int
	Dest   int
	Stats  SearchStats
}

// Conversions is shorthand for Result.Path.Conversions on the originating
// network.
func (r *Result) Conversions(nw *wdm.Network) []wdm.Conversion {
	return r.Path.Conversions(nw)
}

// Route finds an optimal semilightpath from s to t (Theorem 1).
//
// Both super terminals of G_{s,t} stay virtual: the super source s′ is
// realized by running multi-seed Dijkstra with every node of Y_s at
// distance 0, and the super sink t″ by taking the best distance over
// X_t. Both are equivalent to (and cheaper than) materializing the
// terminals, and they leave the compiled graph untouched — concurrent
// Route calls on one Aux are safe.
func (a *Aux) Route(s, t int, opts *Options) (*Result, error) {
	if s < 0 || s >= a.nw.NumNodes() {
		return nil, fmt.Errorf("%w: source %d", ErrNodeRange, s)
	}
	if t < 0 || t >= a.nw.NumNodes() {
		return nil, fmt.Errorf("%w: dest %d", ErrNodeRange, t)
	}
	if s == t {
		// The trivial semilightpath: no links, no conversions, cost 0.
		return &Result{Path: &wdm.Semilightpath{}, Source: s, Dest: t}, nil
	}
	sp := opts.span().StartChild(SpanSearch)
	defer sp.End()

	// Borrow pooled per-query scratch: seed/goal backings plus the
	// Dijkstra arrays and heap store. Everything the scratch backs is
	// consumed before the deferred return, so steady-state point queries
	// allocate only their Result.
	qs := a.pool.get()
	defer a.pool.put(qs)

	qs.seeds = qs.seeds[:0]
	for yi := range a.yLambdas[s] {
		qs.seeds = append(qs.seeds, int(a.yStart[s])+yi)
	}
	if len(qs.seeds) == 0 {
		sp.SetBool(attrBlocked, true)
		return nil, fmt.Errorf("%w: from %d to %d (no outgoing channels at source)", ErrNoRoute, s, t)
	}
	// Early termination: stop once every X_t shore node is settled (the
	// virtual super sink's in-neighbours). Unreachable shore nodes keep
	// the search running to exhaustion, which is the correct worst case.
	qs.goals = qs.goals[:0]
	for xi := range a.xLambdas[t] {
		qs.goals = append(qs.goals, int(a.xStart[t])+xi)
	}
	if len(qs.goals) == 0 {
		sp.SetBool(attrBlocked, true)
		return nil, fmt.Errorf("%w: from %d to %d (no incoming channels at destination)", ErrNoRoute, s, t)
	}

	// Mode dispatch: every branch fills the same result variables, so
	// stats, tracing and extraction below are mode-agnostic. All modes
	// return the same optimal cost; they differ in nodes settled proving
	// it (and, among equal-cost optima, possibly in which path they pick).
	mode := opts.directed()
	var (
		fwdTree  *graph.ShortestPathTree // forward tree: extraction + per-λ profile
		settled  int
		relaxed  int
		bestDist = graph.Inf
		bestNode = -1
		bidiHops []graph.HopRef // non-nil exactly when bidi found a path
	)
	switch mode {
	case DirectedBidi, DirectedALT:
		ranALT := false
		if mode == DirectedALT {
			if ps := opts.potential(); ps != nil {
				if pot, release := ps.Potential(qs.seeds, qs.goals); pot != nil {
					tree, err := graph.AStarSeedsUntilScratch(a.g, qs.seeds, qs.goals, pot, qs.g)
					if release != nil {
						release()
					}
					if err != nil {
						return nil, fmt.Errorf("core: goal-directed dijkstra: %w", err)
					}
					fwdTree, settled, relaxed = tree, tree.Settled, tree.Relaxed
					ranALT = true
				}
			}
		}
		if !ranALT {
			// No potential source (or it declined): bidirectional search
			// needs nothing precomputed.
			mode = DirectedBidi
			if qs.b == nil {
				qs.b = graph.NewScratch(a.NumAuxNodes())
			}
			rev := a.ReverseGraph()
			bt, err := graph.BidirectionalDijkstraScratch(a.g, rev, qs.seeds, qs.goals, qs.g, qs.b)
			if err != nil {
				return nil, fmt.Errorf("core: bidirectional dijkstra: %w", err)
			}
			fwdTree, settled, relaxed = bt.Fwd, bt.Settled, bt.Relaxed
			if bt.Reached() {
				bidiHops, err = bt.Path(a.g, rev)
				if err != nil {
					return nil, fmt.Errorf("core: reconstruct path: %w", err)
				}
				// Forward-order sum: identical accumulation to a plain
				// search settling the same path.
				bestDist = graph.PathCost(a.g, bidiHops)
				bestNode = bt.Meet
				if len(bidiHops) > 0 {
					last := bidiHops[len(bidiHops)-1]
					bestNode = int(a.g.Out(last.From)[last.ArcIndex].To)
				}
			}
		}
	default:
		tree, err := graph.DijkstraSeedsUntilScratch(a.g, qs.seeds, qs.goals, opts.queue(), qs.g)
		if err != nil {
			return nil, fmt.Errorf("core: dijkstra: %w", err)
		}
		fwdTree, settled, relaxed = tree, tree.Settled, tree.Relaxed
	}
	if bidiHops == nil {
		// Virtual super sink: min over X_t on the forward tree.
		for xi := range a.xLambdas[t] {
			x := int(a.xStart[t]) + xi
			if fwdTree.Dist[x] < bestDist {
				bestDist = fwdTree.Dist[x]
				bestNode = x
			}
		}
	}
	stats := SearchStats{
		AuxNodes: a.NumAuxNodes() + 2,
		AuxArcs:  a.g.NumArcs() + len(a.xLambdas[t]),
		Settled:  settled,
		Relaxed:  relaxed,
	}
	if sp != nil {
		sp.SetInt(attrAuxNodes, int64(stats.AuxNodes))
		sp.SetInt(attrAuxArcs, int64(stats.AuxArcs))
		sp.SetInt(attrSettled, int64(stats.Settled))
		sp.SetInt(attrRelaxed, int64(stats.Relaxed))
		sp.SetStr(attrDirected, mode.String())
		sp.SetStr(attrReachedPerLambda, a.reachedPerLambda(fwdTree))
	}
	if bestNode < 0 {
		sp.SetBool(attrBlocked, true)
		return nil, fmt.Errorf("%w: from %d to %d", ErrNoRoute, s, t)
	}

	var path *wdm.Semilightpath
	if bidiHops != nil {
		path = a.hopsToPath(bidiHops)
	} else {
		var err error
		path, err = a.extractPath(fwdTree, bestNode)
		if err != nil {
			return nil, err
		}
	}
	sp.SetFloat(attrCost, bestDist)
	return &Result{Path: path, Cost: bestDist, Source: s, Dest: t, Stats: stats}, nil
}

// PathConversions reports the conversion economics of path on this
// graph: conversions taken (every wavelength change, even on a free
// converter) and conversions available — at each intermediate node, the
// distinct different-wavelength switches the arrival wavelength could
// have made (gadget arcs out of its X-shore entry). Gadget arcs come
// from the layout network, so every snapshot an engine publishes over
// one installed network answers the same availability for a path.
func (a *Aux) PathConversions(path *wdm.Semilightpath) (taken, available int) {
	for i := 1; i < len(path.Hops); i++ {
		prev := path.Hops[i-1]
		if path.Hops[i].Wavelength != prev.Wavelength {
			taken++
		}
		available += a.conversionFanout(a.nw.Link(prev.Link).To, prev.Wavelength)
	}
	return taken, available
}

// conversionFanout counts the distinct wavelengths λq ≠ λ reachable by
// a conversion at node v when arriving on λ — the size of the choice
// set the router had at that junction.
func (a *Aux) conversionFanout(v int, lambda wdm.Wavelength) int {
	x, ok := a.xIndex(v, lambda)
	if !ok {
		return 0
	}
	fanout := 0
	for _, arc := range a.g.Out(x) {
		if arc.Tag == tagConversion && a.info[arc.To].Lambda != lambda {
			fanout++
		}
	}
	return fanout
}

// sourceSeeds lists the Y_s shore node IDs — the targets the virtual
// super source s′ would reach with weight-0 arcs.
func (a *Aux) sourceSeeds(s int) []int {
	seeds := make([]int, len(a.yLambdas[s]))
	for yi := range a.yLambdas[s] {
		seeds[yi] = int(a.yStart[s]) + yi
	}
	return seeds
}

// extractPath maps the shortest Y_s→(t,λ) path in the auxiliary graph
// back to a semilightpath of G: arcs with non-negative tags are physical
// hops whose wavelength is the shore wavelength of their tail.
func (a *Aux) extractPath(tree *graph.ShortestPathTree, goal int) (*wdm.Semilightpath, error) {
	hops, err := tree.ArcsTo(goal)
	if err != nil {
		return nil, fmt.Errorf("core: reconstruct path: %w", err)
	}
	return a.hopsToPath(hops), nil
}

// hopsToPath maps a sequence of auxiliary-graph arc references to the
// semilightpath they encode, regardless of which search produced them.
func (a *Aux) hopsToPath(hops []graph.HopRef) *wdm.Semilightpath {
	path := &wdm.Semilightpath{Hops: make([]wdm.Hop, 0, len(hops)/2+1)}
	for _, h := range hops {
		arc := a.g.Out(h.From)[h.ArcIndex]
		if arc.Tag < 0 {
			continue // conversion or super arc: implied by hop wavelengths
		}
		path.Hops = append(path.Hops, wdm.Hop{
			Link:       int(arc.Tag),
			Wavelength: a.info[h.From].Lambda,
		})
	}
	return path
}

// FindSemilightpath is the one-shot convenience API: compile the
// auxiliary graph for nw and answer a single (s,t) query. For repeated
// queries on one network, build an Aux once and call Route.
func FindSemilightpath(nw *wdm.Network, s, t int, opts *Options) (*Result, error) {
	a, err := NewAux(nw)
	if err != nil {
		return nil, err
	}
	return a.Route(s, t, opts)
}

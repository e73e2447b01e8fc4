package graph

import (
	"fmt"

	"lightpath/internal/heap/arrayq"
	"lightpath/internal/heap/binheap"
	"lightpath/internal/heap/fibheap"
	"lightpath/internal/heap/pairing"
)

// QueueKind selects the priority structure driving Dijkstra's algorithm.
// The choice changes the time bound, not the result:
//
//	QueueFibonacci  O(m + n·log n)   — the bound Theorem 1 cites
//	QueueBinary     O((m+n)·log n)   — practical default
//	QueueLinear     O(n² + m)        — the CFZ-era baseline structure
//	QueuePairing    O(m·α + n·log n) — pairing heap; small constants
type QueueKind int

// Supported queue kinds.
const (
	QueueFibonacci QueueKind = iota + 1
	QueueBinary
	QueueLinear
	QueuePairing
)

// String implements fmt.Stringer.
func (k QueueKind) String() string {
	switch k {
	case QueueFibonacci:
		return "fibonacci"
	case QueueBinary:
		return "binary"
	case QueueLinear:
		return "linear"
	case QueuePairing:
		return "pairing"
	default:
		return fmt.Sprintf("QueueKind(%d)", int(k))
	}
}

// ShortestPathTree holds the result of a single-source run: per-node
// distances, the predecessor node, and the index of the arc used to enter
// each node (into Out(parent)), so callers can recover arc tags.
type ShortestPathTree struct {
	Source  int // the single source, or -1 for a multi-seed tree
	Dist    []float64
	Parent  []int32 // -1 when unreached or a seed
	ViaArc  []int32 // index into Out(Parent[v]); -1 when unreached
	Settled int     // number of nodes settled (popped)
	Relaxed int     // number of arc relaxations attempted

	seeds []int

	// tracked is set on scratch-backed trees whose kernel lists, in
	// touched, every node it gave a finite distance (first-reach order).
	// Scratch resets and ForEachReached then cost O(touched), not O(n).
	tracked bool
	touched []int32
}

// reach records that v is now reached at distance d through arc i of u.
// It is the one relaxation write the tracking kernels share, so a
// tracked tree's touched list stays complete.
func (t *ShortestPathTree) reach(v int, d float64, u, i int) {
	if t.tracked && IsInf(t.Dist[v]) {
		t.touched = append(t.touched, int32(v))
	}
	t.Dist[v] = d
	t.Parent[v] = int32(u)
	t.ViaArc[v] = int32(i)
}

// ForEachReached calls fn for every node with a finite distance: over
// the touched list (first-reach order) when the tree tracks one, else
// by scanning Dist in node order. Profiles of a point query's expansion
// therefore cost what the search reached, not the graph size.
func (t *ShortestPathTree) ForEachReached(fn func(v int)) {
	if t.tracked {
		for _, v := range t.touched {
			fn(int(v))
		}
		return
	}
	for v, d := range t.Dist {
		if Finite(d) {
			fn(v)
		}
	}
}

// Reached reports whether v was reached from the source.
func (t *ShortestPathTree) Reached(v int) bool {
	return v >= 0 && v < len(t.Dist) && Finite(t.Dist[v])
}

// PathTo reconstructs the node sequence seed..v, or ErrNoPath. For a
// single-source tree the path starts at Source; for a multi-seed tree it
// starts at whichever seed the parent chain reaches.
func (t *ShortestPathTree) PathTo(v int) ([]int, error) {
	if !t.Reached(v) {
		return nil, fmt.Errorf("%w: to node %d", ErrNoPath, v)
	}
	var rev []int
	for u := v; ; u = int(t.Parent[u]) {
		rev = append(rev, u)
		if t.Parent[u] < 0 {
			// Must be a seed (distance 0); anything else is corruption.
			if t.Dist[u] != 0 {
				return nil, fmt.Errorf("graph: broken parent chain at node %d", u)
			}
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

// ArcsTo reconstructs the sequence of (node, arc-index) hops from the
// source to v; each entry identifies the arc Out(node)[idx] taken.
func (t *ShortestPathTree) ArcsTo(v int) ([]HopRef, error) {
	nodes, err := t.PathTo(v)
	if err != nil {
		return nil, err
	}
	hops := make([]HopRef, 0, len(nodes)-1)
	for i := 1; i < len(nodes); i++ {
		hops = append(hops, HopRef{From: nodes[i-1], ArcIndex: int(t.ViaArc[nodes[i]])})
	}
	return hops, nil
}

// HopRef identifies one arc on a reconstructed path: the arc
// Out(From)[ArcIndex].
type HopRef struct {
	From     int
	ArcIndex int
}

// Dijkstra computes single-source shortest paths from src using the given
// queue kind. Arc weights are guaranteed non-negative by construction
// (AddArc rejects negatives), which Dijkstra requires.
//
// If goal >= 0 the search stops as soon as goal is settled — distances of
// nodes settled later are left at Inf. Pass goal < 0 for a full tree.
func Dijkstra(g *Digraph, src int, goal int, kind QueueKind) (*ShortestPathTree, error) {
	return DijkstraSeeds(g, []int{src}, goal, kind)
}

// DijkstraSeeds computes shortest paths from a *set* of seed nodes, all
// at distance 0 — equivalent to Dijkstra from a virtual super source
// wired to every seed with weight-0 arcs, without materializing it.
// The routing layer uses this to query the immutable auxiliary graph
// concurrently: the seeds are the Y_s shore of the query's source.
//
// The returned tree has Source set to the first seed when there is
// exactly one, and -1 otherwise; PathTo walks parents until it reaches
// any seed.
func DijkstraSeeds(g *Digraph, seeds []int, goal int, kind QueueKind) (*ShortestPathTree, error) {
	n := g.NumNodes()
	if goal >= n {
		return nil, fmt.Errorf("%w: goal %d", ErrNodeRange, goal)
	}
	t, err := newSeedTree(g, seeds)
	if err != nil {
		return nil, err
	}
	var stop func(int) bool
	if goal >= 0 {
		stop = func(u int) bool { return u == goal }
	}
	return t, runEngine(g, t, stop, kind)
}

// DijkstraSeedsUntil is DijkstraSeeds with goal-SET early termination:
// the search halts once every node in goals has been settled. Distances
// of later nodes are left at Inf. The routing layer uses it for point
// queries, where the goals are the X_t shore of the destination.
func DijkstraSeedsUntil(g *Digraph, seeds, goals []int, kind QueueKind) (*ShortestPathTree, error) {
	n := g.NumNodes()
	for _, gl := range goals {
		if gl < 0 || gl >= n {
			return nil, fmt.Errorf("%w: goal %d", ErrNodeRange, gl)
		}
	}
	t, err := newSeedTree(g, seeds)
	if err != nil {
		return nil, err
	}
	var stop func(int) bool
	if len(goals) > 0 {
		pending := make(map[int]bool, len(goals))
		for _, gl := range goals {
			pending[gl] = true
		}
		stop = func(u int) bool {
			if pending[u] {
				delete(pending, u)
			}
			return len(pending) == 0
		}
	}
	return t, runEngine(g, t, stop, kind)
}

func runEngine(g *Digraph, t *ShortestPathTree, stop func(int) bool, kind QueueKind) error {
	switch kind {
	case QueueFibonacci:
		return dijkstraFib(g, t, stop)
	case QueueBinary:
		return dijkstraBin(g, t, stop)
	case QueueLinear:
		return dijkstraLinear(g, t, stop)
	case QueuePairing:
		return dijkstraPairing(g, t, stop)
	default:
		return fmt.Errorf("graph: unknown queue kind %d", int(kind))
	}
}

func dijkstraPairing(g *Digraph, t *ShortestPathTree, stop func(int) bool) error {
	h := pairing.New()
	handles := make([]*pairing.Node, g.NumNodes())
	for _, s := range t.seeds {
		if handles[s] == nil {
			handles[s] = h.Insert(0, int64(s))
		}
	}
	done := make([]bool, g.NumNodes())
	for !h.Empty() {
		node, err := h.ExtractMin()
		if err != nil {
			return err
		}
		u := int(node.Value())
		handles[u] = nil
		done[u] = true
		t.Settled++
		if stop != nil && stop(u) {
			return nil
		}
		du := t.Dist[u]
		for i, a := range g.Out(u) {
			v := int(a.To)
			if done[v] {
				continue
			}
			t.Relaxed++
			nd := du + a.Weight
			if nd < t.Dist[v] {
				t.reach(v, nd, u, i)
				if handles[v] == nil {
					handles[v] = h.Insert(nd, int64(v))
				} else if err := h.DecreaseKey(handles[v], nd); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func dijkstraFib(g *Digraph, t *ShortestPathTree, stop func(int) bool) error {
	h := fibheap.New()
	handles := make([]*fibheap.Node, g.NumNodes())
	for _, s := range t.seeds {
		if handles[s] == nil {
			handles[s] = h.Insert(0, int64(s))
		}
	}
	done := make([]bool, g.NumNodes())
	for !h.Empty() {
		node, err := h.ExtractMin()
		if err != nil {
			return err
		}
		u := int(node.Value())
		handles[u] = nil
		done[u] = true
		t.Settled++
		if stop != nil && stop(u) {
			return nil
		}
		du := t.Dist[u]
		for i, a := range g.Out(u) {
			v := int(a.To)
			if done[v] {
				continue
			}
			t.Relaxed++
			nd := du + a.Weight
			if nd < t.Dist[v] {
				t.reach(v, nd, u, i)
				if handles[v] == nil {
					handles[v] = h.Insert(nd, int64(v))
				} else if err := h.DecreaseKey(handles[v], nd); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func dijkstraBin(g *Digraph, t *ShortestPathTree, stop func(int) bool) error {
	return dijkstraBinInto(g, t, stop, binheap.New(g.NumNodes()), make([]bool, g.NumNodes()))
}

// dijkstraBinInto is the binary-heap engine over caller-provided heap
// and settled-set storage (empty/cleared on entry), so pooled scratch
// can drive it without per-query allocation.
func dijkstraBinInto(g *Digraph, t *ShortestPathTree, stop func(int) bool, h *binheap.Heap, done []bool) error {
	for _, s := range t.seeds {
		if _, err := h.PushOrDecrease(s, 0); err != nil {
			return err
		}
	}
	for !h.Empty() {
		u, du, err := h.Pop()
		if err != nil {
			return err
		}
		done[u] = true
		t.Settled++
		if stop != nil && stop(u) {
			return nil
		}
		for i, a := range g.Out(u) {
			v := int(a.To)
			if done[v] {
				continue
			}
			t.Relaxed++
			nd := du + a.Weight
			if nd < t.Dist[v] {
				t.reach(v, nd, u, i)
				if _, err := h.PushOrDecrease(v, nd); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func dijkstraLinear(g *Digraph, t *ShortestPathTree, stop func(int) bool) error {
	q := arrayq.New(g.NumNodes())
	for _, s := range t.seeds {
		q.PushOrDecrease(s, 0)
	}
	done := make([]bool, g.NumNodes())
	for !q.Empty() {
		u, du, err := q.Pop()
		if err != nil {
			return err
		}
		done[u] = true
		t.Settled++
		if stop != nil && stop(u) {
			return nil
		}
		for i, a := range g.Out(u) {
			v := int(a.To)
			if done[v] {
				continue
			}
			t.Relaxed++
			nd := du + a.Weight
			if nd < t.Dist[v] {
				t.reach(v, nd, u, i)
				q.PushOrDecrease(v, nd)
			}
		}
	}
	return nil
}

// BellmanFord computes single-source shortest paths by edge relaxation in
// rounds. It is the reference oracle in tests (no priority queue to get
// wrong) and mirrors the synchronous message-passing algorithm the
// distributed implementation executes. Returns the tree and the number of
// rounds until quiescence.
func BellmanFord(g *Digraph, src int) (*ShortestPathTree, int, error) {
	n := g.NumNodes()
	if src < 0 || src >= n {
		return nil, 0, fmt.Errorf("%w: source %d", ErrNodeRange, src)
	}
	t := &ShortestPathTree{
		Source: src,
		Dist:   make([]float64, n),
		Parent: make([]int32, n),
		ViaArc: make([]int32, n),
	}
	for i := range t.Dist {
		t.Dist[i] = Inf
		t.Parent[i] = -1
		t.ViaArc[i] = -1
	}
	t.Dist[src] = 0
	rounds := 0
	for changed := true; changed; {
		changed = false
		rounds++
		if rounds > n+1 {
			return nil, rounds, fmt.Errorf("graph: negative cycle detected (impossible with non-negative weights)")
		}
		for u := 0; u < n; u++ {
			du := t.Dist[u]
			if IsInf(du) {
				continue
			}
			for i, a := range g.Out(u) {
				t.Relaxed++
				if nd := du + a.Weight; nd < t.Dist[a.To] {
					t.Dist[a.To] = nd
					t.Parent[a.To] = int32(u)
					t.ViaArc[a.To] = int32(i)
					changed = true
				}
			}
		}
	}
	t.Settled = n
	return t, rounds, nil
}

// newSeedTree validates seeds and initializes a distance tree with every
// seed at distance 0.
func newSeedTree(g *Digraph, seeds []int) (*ShortestPathTree, error) {
	n := g.NumNodes()
	if len(seeds) == 0 {
		return nil, fmt.Errorf("%w: no seeds", ErrNodeRange)
	}
	for _, s := range seeds {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("%w: seed %d", ErrNodeRange, s)
		}
	}
	t := &ShortestPathTree{
		Source: -1,
		Dist:   make([]float64, n),
		Parent: make([]int32, n),
		ViaArc: make([]int32, n),
	}
	if len(seeds) == 1 {
		t.Source = seeds[0]
	}
	for i := range t.Dist {
		t.Dist[i] = Inf
		t.Parent[i] = -1
		t.ViaArc[i] = -1
	}
	t.seeds = seeds
	for _, s := range seeds {
		t.Dist[s] = 0
	}
	return t, nil
}

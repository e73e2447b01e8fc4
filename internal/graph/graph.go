// Package graph provides the directed-graph substrate shared by every
// algorithm in this repository: a compact adjacency-list digraph with
// non-negative float64 arc weights, plus single-source shortest-path
// engines backed by three interchangeable priority structures (Fibonacci
// heap, binary heap, linear scan).
//
// All auxiliary graphs of the reproduced paper (G_M, G', G_{s,t}, G_all,
// and the CFZ wavelength graph WG) are instances of Digraph; the engines
// here are what realize Theorem 1's O(m' + n'·log n') shortest-path step.
package graph

import (
	"errors"
	"fmt"
	"math"
)

// Inf is the weight used for "no connection". Arcs are never stored with
// weight Inf; it only appears in distance vectors.
var Inf = math.Inf(1)

// IsInf reports whether a cost or distance is the +Inf sentinel —
// "unreachable"/"unavailable", not a number. It and Finite are the only
// blessed ways to test against the sentinel (enforced by wdmlint's
// infcost analyzer): direct comparisons silently accept NaN and invite
// arithmetic on ∞.
func IsInf(w float64) bool { return math.IsInf(w, 1) }

// Finite reports whether a cost or distance is a real value rather than
// the +Inf sentinel.
func Finite(w float64) bool { return !math.IsInf(w, 1) }

// Errors returned by graph operations.
var (
	// ErrNodeRange is returned when a node ID is out of range.
	ErrNodeRange = errors.New("graph: node out of range")
	// ErrNegativeWeight is returned when adding an arc with negative weight.
	ErrNegativeWeight = errors.New("graph: negative arc weight")
	// ErrNoPath is returned when no path exists between the requested nodes.
	ErrNoPath = errors.New("graph: no path")
)

// Arc is a directed edge with a weight and an opaque payload Tag that
// callers use to map auxiliary-graph arcs back to their origin (a physical
// link + wavelength, or a conversion at a node). Weight comes first so the
// two int32 fields pack behind it: 16 bytes per arc, not 24 with padding.
type Arc struct {
	Weight float64
	To     int32
	Tag    int32
}

// Digraph is a directed graph over nodes 0..N-1 with weighted arcs stored
// in per-node adjacency lists. The zero value is an empty graph; use New
// to preallocate. Digraph is not safe for concurrent mutation, but any
// number of concurrent readers may share one.
type Digraph struct {
	adj  [][]Arc
	arcs int
}

// New returns a graph with n nodes and no arcs.
func New(n int) *Digraph {
	return &Digraph{adj: make([][]Arc, n)}
}

// NumNodes reports the number of nodes.
func (g *Digraph) NumNodes() int { return len(g.adj) }

// NumArcs reports the number of arcs.
func (g *Digraph) NumArcs() int { return g.arcs }

// AddNode appends a fresh node and returns its ID.
func (g *Digraph) AddNode() int {
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

// AddNodes appends count fresh nodes and returns the ID of the first.
func (g *Digraph) AddNodes(count int) int {
	first := len(g.adj)
	g.adj = append(g.adj, make([][]Arc, count)...)
	return first
}

// AddArc inserts a directed arc from u to v with the given weight and tag.
// Parallel arcs are permitted (the multigraph G_M depends on this).
func (g *Digraph) AddArc(u, v int, weight float64, tag int32) error {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return fmt.Errorf("%w: arc %d->%d in graph of %d nodes", ErrNodeRange, u, v, len(g.adj))
	}
	if weight < 0 || math.IsNaN(weight) {
		return fmt.Errorf("%w: arc %d->%d weight %v", ErrNegativeWeight, u, v, weight)
	}
	if math.IsInf(weight, 1) {
		// Infinite weight means "unavailable"; by convention we simply do
		// not store the arc, matching the paper's treatment of w = ∞.
		return nil
	}
	g.adj[u] = append(g.adj[u], Arc{To: int32(v), Weight: weight, Tag: tag})
	g.arcs++
	return nil
}

// Out returns the adjacency list of u. The returned slice is owned by the
// graph and must not be modified.
func (g *Digraph) Out(u int) []Arc { return g.adj[u] }

// ClearOut removes every arc leaving u, retaining capacity. It exists so
// a reserved super-source node can be re-wired between routing queries.
func (g *Digraph) ClearOut(u int) {
	g.arcs -= len(g.adj[u])
	g.adj[u] = g.adj[u][:0]
}

// OutDegree reports the number of arcs leaving u.
func (g *Digraph) OutDegree(u int) int { return len(g.adj[u]) }

// InDegrees computes the in-degree of every node in one pass.
func (g *Digraph) InDegrees() []int {
	in := make([]int, len(g.adj))
	for _, arcs := range g.adj {
		for _, a := range arcs {
			in[a.To]++
		}
	}
	return in
}

// MaxDegree returns d = max over nodes of max(in-degree, out-degree),
// the parameter the paper's Theorem 4 bound is stated in.
func (g *Digraph) MaxDegree() int {
	in := g.InDegrees()
	d := 0
	for u := range g.adj {
		if len(g.adj[u]) > d {
			d = len(g.adj[u])
		}
		if in[u] > d {
			d = in[u]
		}
	}
	return d
}

// CloneCOW returns a copy-on-write clone: the per-node spine is copied
// but every adjacency segment is shared with g. The clone costs O(n)
// pointers regardless of arc count; afterwards, ReplaceOut swaps
// individual segments without disturbing g. This is the structural-
// sharing primitive behind incremental auxiliary-graph maintenance —
// a chain of clones shares every untouched segment with the compile
// that produced it.
//
// The clone and g must not have AddArc called on shared segments
// concurrently with readers; the intended protocol is clone → patch via
// ReplaceOut → publish immutably.
func (g *Digraph) CloneCOW() *Digraph {
	c := &Digraph{adj: make([][]Arc, len(g.adj)), arcs: g.arcs}
	copy(c.adj, g.adj)
	return c
}

// ReplaceOut swaps node u's entire adjacency segment for arcs, which the
// graph takes ownership of (the caller must not retain or mutate it).
// Arc weights and targets are validated like AddArc; infinite weights
// are rejected here rather than skipped, because the caller assembles
// the segment explicitly. Used with CloneCOW to patch a shared graph.
func (g *Digraph) ReplaceOut(u int, arcs []Arc) error {
	if u < 0 || u >= len(g.adj) {
		return fmt.Errorf("%w: replace out-arcs of %d in graph of %d nodes", ErrNodeRange, u, len(g.adj))
	}
	for _, a := range arcs {
		if a.To < 0 || int(a.To) >= len(g.adj) {
			return fmt.Errorf("%w: arc %d->%d in graph of %d nodes", ErrNodeRange, u, a.To, len(g.adj))
		}
		if a.Weight < 0 || math.IsNaN(a.Weight) || math.IsInf(a.Weight, 1) {
			return fmt.Errorf("%w: arc %d->%d weight %v", ErrNegativeWeight, u, a.To, a.Weight)
		}
	}
	g.arcs += len(arcs) - len(g.adj[u])
	g.adj[u] = arcs
	return nil
}

// Compact rewrites every adjacency segment into one contiguous arena —
// the CSR (compressed sparse row) form of the graph. Iteration order and
// contents are unchanged; what changes is locality: the Dijkstra hot
// loop walks segments that now sit back-to-back in one allocation
// instead of scattered per-node slices. Each segment is stored with full
// capacity so a later AddArc on the compacted graph reallocates that
// segment rather than bleeding into its neighbour.
func (g *Digraph) Compact() {
	arena := make([]Arc, 0, g.arcs)
	for u := range g.adj {
		arena = append(arena, g.adj[u]...)
	}
	off := 0
	for u := range g.adj {
		n := len(g.adj[u])
		g.adj[u] = arena[off : off+n : off+n]
		off += n
	}
}

// Reverse returns a new graph with every arc direction flipped, already
// in compacted (CSR) form: one counting pass sizes each reversed segment,
// and one fill pass over the sources in ascending order writes them into
// a single arena. Each reversed segment therefore lists its arcs by
// ascending source node, and parallel arcs keep their forward order.
func (g *Digraph) Reverse() *Digraph {
	in := g.InDegrees()
	arena := make([]Arc, g.arcs)
	r := &Digraph{adj: make([][]Arc, len(g.adj)), arcs: g.arcs}
	off := 0
	for v := range r.adj {
		// Empty and capped at its end: filled below by appending, and a
		// later AddArc reallocates rather than bleeding into v+1.
		r.adj[v] = arena[off : off : off+in[v]]
		off += in[v]
	}
	for u, arcs := range g.adj {
		for _, a := range arcs {
			r.adj[a.To] = append(r.adj[a.To], Arc{To: int32(u), Weight: a.Weight, Tag: a.Tag})
		}
	}
	return r
}

// Clone returns a deep copy of the graph.
func (g *Digraph) Clone() *Digraph {
	c := New(len(g.adj))
	c.arcs = g.arcs
	for u, arcs := range g.adj {
		if len(arcs) == 0 {
			continue
		}
		c.adj[u] = append([]Arc(nil), arcs...)
	}
	return c
}

// ReachableFrom returns the set of nodes reachable from src (including
// src) as a boolean slice, via BFS over arcs of any weight.
func (g *Digraph) ReachableFrom(src int) []bool {
	seen := make([]bool, len(g.adj))
	if src < 0 || src >= len(g.adj) {
		return seen
	}
	queue := []int{src}
	seen[src] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range g.adj[u] {
			if !seen[a.To] {
				seen[a.To] = true
				queue = append(queue, int(a.To))
			}
		}
	}
	return seen
}

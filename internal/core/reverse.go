package core

import (
	"fmt"
	"sort"

	"lightpath/internal/graph"
)

// This file maintains the reverse of the compiled auxiliary graph — the
// substrate bidirectional search's backward frontier runs on. Like the
// forward graph it is epoch-immutable and shared by every reader of one
// Aux; unlike the forward graph it is built lazily (plain and A* queries
// never pay for it) and patched copy-on-write across ApplyDelta chains.
//
// Structure of the reverse: only E_org arcs enter X-shore nodes and only
// conversion arcs enter Y-shore nodes, so a residual mutation on link
// e=(u,v) perturbs exactly the reversed out-segments of the X_v(λ) nodes
// for λ installed on e — the mirror image of the forward delta argument
// in delta.go. Y-segments of the reverse (reversed gadget arcs) never
// change under a fixed layout.

// ReverseGraph returns the reverse of the compiled auxiliary graph,
// building it on first use and caching it for the Aux's lifetime. The
// result is immutable and safe to share across goroutines; it is
// arc-for-arc identical (including per-segment order) to
// Digraph.Reverse() of the forward graph, so backward searches see the
// same tie-breaking a freshly computed reverse would give.
func (a *Aux) ReverseGraph() *graph.Digraph {
	if r := a.rev.Load(); r != nil {
		return r
	}
	a.revMu.Lock()
	defer a.revMu.Unlock()
	if r := a.rev.Load(); r != nil {
		return r
	}
	// Reverse builds the CSR form directly: the backward Dijkstra hot
	// loop walks one contiguous arena, like the compacted forward graph.
	r := a.g.Reverse()
	a.rev.Store(r)
	return r
}

// reverseInSegment re-emits the reverse-graph out-segment of X-shore
// node x from the current residual network: one arc per in-link of the
// node carrying x's wavelength, ordered by (source node, link ID)
// ascending — exactly the order Digraph.Reverse() produces, because
// forward E_org arcs into X_v(λ) are appended while scanning Y_u(λ)
// sources in aux-ID (hence network-node) order and each Y-segment lists
// link IDs ascending.
func (a *Aux) reverseInSegment(x int) ([]graph.Arc, error) {
	v := int(a.info[x].Node)
	lam := a.info[x].Lambda
	in := a.nw.In(v)
	ids := make([]int32, len(in))
	copy(ids, in)
	sort.Slice(ids, func(i, j int) bool {
		li, lj := a.nw.Link(int(ids[i])), a.nw.Link(int(ids[j]))
		if li.From != lj.From {
			return li.From < lj.From
		}
		return ids[i] < ids[j]
	})
	seg := make([]graph.Arc, 0, len(ids))
	for _, lid := range ids {
		link := a.nw.Link(int(lid))
		w, ok := link.Has(lam)
		if !ok {
			continue
		}
		y, ok := a.yIndex(link.From, lam)
		if !ok {
			return nil, fmt.Errorf("%w: λ%d missing from layout shore Y_%d", ErrDeltaShape, lam, link.From)
		}
		seg = append(seg, graph.Arc{To: int32(y), Weight: w, Tag: int32(lid)})
	}
	return seg, nil
}

// patchReverse carries a parent's cached reverse graph forward across a
// delta: copy-on-write clone, then re-emit the reversed segments of the
// X nodes touched by the changed links. Called by ApplyDelta only when
// the parent actually materialized its reverse — otherwise the child
// stays lazy and the first backward query pays one full Reverse().
func (child *Aux) patchReverse(parent *graph.Digraph, touchedX map[int32]struct{}) error {
	rg := parent.CloneCOW()
	for x := range touchedX {
		seg, err := child.reverseInSegment(int(x))
		if err != nil {
			return err
		}
		if err := rg.ReplaceOut(int(x), seg); err != nil {
			return fmt.Errorf("core: patch reverse segment X_%d(λ%d): %w",
				child.info[x].Node, child.info[x].Lambda, err)
		}
	}
	child.rev.Store(rg)
	return nil
}

package core

import (
	"strconv"

	"lightpath/internal/graph"
	"lightpath/internal/obs"
)

// Span names and attribute keys for the core layer. Names are
// compile-time constants so the metricname analyzer can verify them
// (lower_snake, unique across the program).
const (
	SpanSearch        = "core_search"         // one point-to-point query (Route)
	spanTreeSearch    = "core_tree_search"    // one single-source pass (RouteFrom)
	spanBoundedSearch = "core_bounded_search" // one hop-bounded DP (RouteBounded)
)

const (
	attrAuxNodes         = "aux_nodes"
	attrAuxArcs          = "aux_arcs"
	attrSettled          = "settled"
	attrRelaxed          = "relaxed"
	attrBlocked          = "blocked"
	attrCost             = "cost"
	attrDirected         = "directed_mode"
	attrMaxHops          = "max_hops"
	attrReachedPerLambda = "reached_per_lambda"
)

// ReadSearchSpan reads the search anatomy Route recorded on a
// core_search span: the work counters and whether the query blocked.
// Counters an early-blocked query never set (no channels at an
// endpoint) read as 0, and so does everything on a nil span.
func ReadSearchSpan(sp *obs.Span) (st SearchStats, blocked bool) {
	n := func(key string) int {
		a, _ := sp.Attr(key)
		return int(a.Int)
	}
	st = SearchStats{AuxNodes: n(attrAuxNodes), AuxArcs: n(attrAuxArcs), Settled: n(attrSettled), Relaxed: n(attrRelaxed)}
	a, _ := sp.Attr(attrBlocked)
	return st, a.Bool
}

// reachedPerLambda renders per-wavelength counts of reached X-shore
// nodes as "λ:count" pairs sorted by wavelength (e.g. "0:12,2:3") —
// the span-attribute form of the search's expansion profile. Attribute
// *names* must be compile-time constants, so the per-λ breakdown rides
// in one string value rather than one attribute per wavelength. Only
// called on the traced path. It counts over the nodes the search
// reached (ShortestPathTree.ForEachReached) into a per-λ slab indexed
// by wavelength, so its cost follows the search, not |V'|.
func (a *Aux) reachedPerLambda(tree *graph.ShortestPathTree) string {
	counts := make([]int32, a.layout.K())
	found := false
	tree.ForEachReached(func(v int) {
		if a.info[v].Side == SideX {
			counts[a.info[v].Lambda]++
			found = true
		}
	})
	if !found {
		return ""
	}
	var buf [256]byte
	b := buf[:0]
	for l, c := range counts {
		if c == 0 {
			continue
		}
		if len(b) > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(l), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(c), 10)
	}
	return string(b)
}

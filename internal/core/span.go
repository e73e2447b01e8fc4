package core

import (
	"sort"
	"strconv"
	"strings"

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
// called on the traced path; the map and builder allocations never
// touch untraced queries.
func (a *Aux) reachedPerLambda(tree *graph.ShortestPathTree) string {
	counts := make(map[int32]int)
	for i := range a.info {
		if a.info[i].Side == SideX && tree.Reached(i) {
			counts[int32(a.info[i].Lambda)]++
		}
	}
	if len(counts) == 0 {
		return ""
	}
	lambdas := make([]int32, 0, len(counts))
	for l := range counts {
		lambdas = append(lambdas, l)
	}
	sort.Slice(lambdas, func(i, j int) bool { return lambdas[i] < lambdas[j] })
	var b strings.Builder
	for i, l := range lambdas {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(int64(l), 10))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(counts[l]))
	}
	return b.String()
}

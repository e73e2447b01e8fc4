package core

import (
	"sort"
	"strconv"
	"strings"
	"testing"

	"lightpath/internal/graph"
	"lightpath/internal/obs"
)

// reachedPerLambdaOracle is the original renderer: scan every aux node
// into a map, sort the wavelengths, join. It is kept as the oracle the
// counting renderer must match byte for byte.
func reachedPerLambdaOracle(a *Aux, tree *graph.ShortestPathTree) string {
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

// TestReachedPerLambdaMatchesOracle routes every NSFNET pair under the
// plain and the bidirectional search with a span attached. The
// reached_per_lambda attribute, counted over the pooled scratch's
// touched list, must equal the oracle rendered from a freshly computed
// tree of the same search (a full Dist scan). The single-source tree
// search is checked the same way.
func TestReachedPerLambdaMatchesOracle(t *testing.T) {
	a, err := NewAux(deltaNetwork(t, 31))
	if err != nil {
		t.Fatal(err)
	}
	n := a.Network().NumNodes()
	attr := func(req *obs.ReqTrace, span string) string {
		sp := req.Span(span)
		if sp == nil {
			t.Fatalf("no %s span", span)
		}
		v, _ := sp.Attr(attrReachedPerLambda)
		return v.Str
	}
	nonEmpty := 0
	for s := 0; s < n; s++ {
		seeds := a.sourceSeeds(s)
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			var goals []int
			for xi := range a.xLambdas[d] {
				goals = append(goals, int(a.xStart[d])+xi)
			}
			for _, mode := range []DirectedMode{DirectedPlain, DirectedBidi} {
				req := obs.NewReqTrace("request")
				_, _ = a.Route(s, d, &Options{Queue: graph.QueueBinary, Directed: mode, Span: req.Root()})
				got := attr(req, SpanSearch)
				want := ""
				if len(seeds) > 0 && len(goals) > 0 {
					var tree *graph.ShortestPathTree
					if mode == DirectedPlain {
						tree, err = graph.DijkstraSeedsUntil(a.g, seeds, goals, graph.QueueBinary)
					} else {
						var bt *graph.BidiTree
						bt, err = graph.BidirectionalDijkstra(a.g, a.ReverseGraph(), seeds, goals)
						if bt != nil {
							tree = bt.Fwd
						}
					}
					if err != nil {
						t.Fatal(err)
					}
					want = reachedPerLambdaOracle(a, tree)
				}
				if got != want {
					t.Fatalf("%v %d->%d: reached_per_lambda %q, oracle %q", mode, s, d, got, want)
				}
				if got != "" {
					nonEmpty++
				}
			}
		}
		req := obs.NewReqTrace("request")
		if _, err := a.RouteFrom(s, &Options{Span: req.Root()}); err != nil {
			t.Fatal(err)
		}
		want := ""
		if len(seeds) > 0 {
			tree, err := graph.DijkstraSeeds(a.g, seeds, -1, graph.QueueFibonacci)
			if err != nil {
				t.Fatal(err)
			}
			want = reachedPerLambdaOracle(a, tree)
		}
		if got := attr(req, spanTreeSearch); got != want {
			t.Fatalf("tree search from %d: reached_per_lambda %q, oracle %q", s, got, want)
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no query reached any X-shore node; the fixture checks nothing")
	}
}

package serve

import (
	"fmt"

	"lightpath/internal/core"
	"lightpath/internal/engine"
	"lightpath/internal/obs"
)

// The explain verb and trace on summaries render from the span tree of
// the query they describe. Each such query runs under a private tree
// (obs.NewReqTrace), recorded whether or not the flight recorder is on
// or sampled the request; the reply reads the search anatomy back from
// its engine_route and core_search spans and recomputes the per-hop
// Eq. (1) breakdown on the pinned snapshot. None of this touches the
// ordinary route path.

// tracedAnatomy is engine.RouteAnatomy plus the cache residency of the
// query's (source, epoch) tree.
type tracedAnatomy struct {
	engine.RouteAnatomy
	cacheHit bool
}

// readTraced reads the anatomy of the routes run under req (nil for an
// untraced query, which reads as zero), counts them on
// engine_traced_routes_total and peeks the SourceTree cache for src at
// the last route's epoch.
func (s *Session) readTraced(src int, req *obs.ReqTrace) tracedAnatomy {
	if req == nil {
		return tracedAnatomy{}
	}
	an := engine.ReadRouteAnatomy(req)
	s.eng.ObserveTraced(an.Routes)
	return tracedAnatomy{RouteAnatomy: an, cacheHit: s.eng.TreeCached(src, an.Epoch)}
}

// tracedRoute answers one point-to-point query on snap under a private
// span tree and reads its anatomy back.
func (s *Session) tracedRoute(snap *engine.Snapshot, src, dst int) (*core.Result, tracedAnatomy, error) {
	req := obs.NewReqTrace(spanRequest)
	res, err := snap.RouteSpanned(src, dst, req.Root())
	return res, s.readTraced(src, req), err
}

// traceRoute is the route verb under trace on: the answer (if any)
// followed by its one-line trace summary.
func (s *Session) traceRoute(src, dst int) error {
	snap := s.eng.Snapshot()
	res, an, err := s.tracedRoute(snap, src, dst)
	if err == nil {
		s.printResult(res)
	}
	s.printTraceSummary(src, dst, res, snap.Aux(), an)
	return err
}

// printTraceSummary renders the trace on line for a route or alloc
// answer: pinned epoch, outcome, conversion economics of the path
// (counted on aux), search anatomy, cache residency, claim attempts
// when there was a retry, and the query's duration. res is nil when the
// query failed.
func (s *Session) printTraceSummary(src, dst int, res *core.Result, aux *core.Aux, an tracedAnatomy) {
	fmt.Fprintf(s.w, "  trace %d->%d epoch %d", src, dst, an.Epoch)
	if an.Blocked {
		fmt.Fprint(s.w, " BLOCKED")
	} else {
		cost, hops, taken, avail := 0.0, 0, 0, 0
		if res != nil {
			cost, hops = res.Cost, res.Path.Len()
			taken, avail = aux.PathConversions(res.Path)
		}
		fmt.Fprintf(s.w, " cost %g (%d hops, %d/%d conversions)", cost, hops, taken, avail)
	}
	fmt.Fprintf(s.w, " aux %dn/%da settled %d relaxed %d",
		an.Search.AuxNodes, an.Search.AuxArcs, an.Search.Settled, an.Search.Relaxed)
	if an.cacheHit {
		fmt.Fprint(s.w, " cache-hit")
	} else {
		fmt.Fprint(s.w, " cache-miss")
	}
	if an.Attempts > 1 {
		fmt.Fprintf(s.w, " attempts %d", an.Attempts)
	}
	fmt.Fprintf(s.w, " in %s\n", an.Elapsed)
}

// explain renders the per-hop Eq. (1) cost anatomy of one route: which
// junction paid which conversion, what each link traversal cost, the
// totals that reconcile to the route cost, and how much of the
// auxiliary graph the search touched. A failed query reports how much
// it searched before the error.
func (s *Session) explain(src, dst int) error {
	snap := s.eng.Snapshot()
	res, an, err := s.tracedRoute(snap, src, dst)
	if err != nil {
		fmt.Fprintf(s.w, "explain %d -> %d: blocked after settling %d of %d aux nodes\n",
			src, dst, an.Search.Settled, an.Search.AuxNodes)
		return err
	}
	cacheState := "cache miss"
	if an.cacheHit {
		cacheState = "cache hit"
	}
	fmt.Fprintf(s.w, "explain %d -> %d (epoch %d, %s, %s)\n", src, dst, an.Epoch, cacheState, an.Elapsed)
	legs := res.Path.Breakdown(snap.Network())
	if len(legs) == 0 {
		fmt.Fprintln(s.w, "  trivial path (source == destination)")
		return nil
	}
	links, convs := 0.0, 0.0
	for i, leg := range legs {
		fmt.Fprintf(s.w, "  hop %d: %d -[λ%d]-> %d  conv %g + link %g  (cum %g)\n",
			i+1, leg.From, int32(leg.Hop.Wavelength)+1, leg.To, leg.ConvCost, leg.LinkCost, leg.Cumulative)
		links += leg.LinkCost
		convs += leg.ConvCost
	}
	fmt.Fprintf(s.w, "  totals: links %g + conversions %g = %g\n", links, convs, links+convs)
	fmt.Fprintf(s.w, "  cost %g  %s\n", res.Cost, res.Path.String(s.eng.Base()))
	taken, avail := snap.Aux().PathConversions(res.Path)
	fmt.Fprintf(s.w, "  search: aux %d nodes / %d arcs, settled %d, relaxed %d, conversions %d/%d taken/available\n",
		an.Search.AuxNodes, an.Search.AuxArcs, an.Search.Settled, an.Search.Relaxed, taken, avail)
	return nil
}

package engine

import (
	"errors"
	"fmt"
	"time"

	"lightpath/internal/core"
	"lightpath/internal/obs"
	"lightpath/internal/wdm"
)

// Span names and attribute keys for the engine layer (compile-time
// constants, verified by the metricname analyzer). Each operation has
// one body, its *Spanned method, which threads a request span through
// the engine into core; the unspanned method passes a nil parent — the
// disabled-recorder default — which records nothing and keeps the hot
// path allocation-free (pinned by the AllocsPerRun tests).
const (
	spanRoute       = "engine_route"
	spanRouteFrom   = "engine_routefrom"
	spanCacheLookup = "engine_cache_lookup"
	spanAllocate    = "engine_allocate"
	spanRelease     = "engine_release"
	spanPublish     = "engine_publish"
)

const (
	attrEpoch    = "epoch"
	attrHit      = "hit"
	attrAttempt  = "attempt"
	attrConflict = "conflict"
	attrMode     = "mode"
)

// AllocateSpanned is Allocate with the claim (and the snapshot
// publication it triggers) timed as an engine_allocate child of parent.
func (e *Engine) AllocateSpanned(owner int64, path *wdm.Semilightpath, parent *obs.Span) error {
	return e.allocate(owner, path, parent, -1)
}

// RouteAndAllocateSpanned is RouteAndAllocate with every attempt of the
// route→claim retry loop recorded under parent: one engine_route and
// one engine_allocate child per attempt (the allocate span carries the
// attempt ordinal, and conflict=true when the claim lost the race). A
// nil parent records nothing.
func (e *Engine) RouteAndAllocateSpanned(owner int64, s, t int, parent *obs.Span) (*core.Result, error) {
	const maxRetries = 8
	var lastErr error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if attempt > 0 {
			e.metrics.allocRetries.Inc()
		}
		res, err := e.Snapshot().RouteSpanned(s, t, parent)
		if err != nil {
			return nil, err
		}
		err = e.allocate(owner, res.Path, parent, attempt)
		if err == nil {
			return res, nil
		}
		if !errors.Is(err, ErrConflict) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("engine: route-and-allocate gave up after retries: %w", lastErr)
}

// RouteAnatomy is what a span tree records about the point-to-point
// route queries run under it: the last query's pinned epoch, duration
// and core_search anatomy, plus how many route and claim attempts ran.
type RouteAnatomy struct {
	Epoch    uint64
	Elapsed  time.Duration // the last engine_route span's extent
	Search   core.SearchStats
	Blocked  bool
	Routes   int // engine_route spans: one per route attempt
	Attempts int // engine_allocate spans: one per claim attempt
}

// ReadRouteAnatomy reads the route anatomy back out of req, the tree a
// caller ran RouteSpanned or RouteAndAllocateSpanned under (wdmserve's
// explain and trace on render from it). A query that never reached a
// core search (a trivial s == t path, a node out of range) reads with a
// zero Search.
func ReadRouteAnatomy(req *obs.ReqTrace) RouteAnatomy {
	var a RouteAnatomy
	spans := req.Spans()
	last := -1
	for i := range spans {
		switch spans[i].Name {
		case spanRoute:
			a.Routes++
			last = i
		case spanAllocate:
			a.Attempts++
		}
	}
	if last < 0 {
		return a
	}
	route := &spans[last]
	a.Elapsed = route.Duration()
	if ep, ok := route.Attr(attrEpoch); ok {
		a.Epoch = uint64(ep.Int)
	}
	for i := last + 1; i < len(spans); i++ {
		if spans[i].Parent == int32(last) && spans[i].Name == core.SpanSearch {
			a.Search, a.Blocked = core.ReadSearchSpan(&spans[i])
			break
		}
	}
	return a
}

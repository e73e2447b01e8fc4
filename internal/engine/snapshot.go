package engine

import (
	"fmt"
	"time"

	"lightpath/internal/core"
	"lightpath/internal/graph"
	"lightpath/internal/obs"
	"lightpath/internal/wdm"
)

// Snapshot is one immutable routing view of the network: the residual
// capacity at a fixed epoch plus its compiled auxiliary graph. A
// snapshot never changes after publication, so any number of goroutines
// may route on it concurrently — including long after newer epochs have
// superseded it (readers "pin" their epoch simply by holding the
// pointer).
type Snapshot struct {
	epoch uint64
	net   *wdm.Network
	aux   *core.Aux
	eng   *Engine
	queue graph.QueueKind
	// addSeq/removeSeq are monotone counters of arc-adding and
	// arc-removing epochs — the witnesses the landmark manager uses to
	// decide whether its vectors are still admissible here (landmarks.go).
	addSeq    uint64
	removeSeq uint64
	// pot adapts this snapshot's identity to core.PotentialSource for ALT
	// queries. Held by value so ropts.Potential can point into the
	// snapshot without a per-query allocation.
	pot snapPotential
	// ropts is the precomputed query options for this snapshot's queue.
	// opts() hands out a pointer into the snapshot instead of allocating
	// per call, which keeps cache-hit point queries allocation-free.
	ropts core.Options
}

// Epoch reports which mutation generation this snapshot reflects.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Network returns the residual network (free channels only). Callers
// must not mutate it.
func (s *Snapshot) Network() *wdm.Network { return s.net }

// Aux returns the compiled auxiliary graph of the residual network.
func (s *Snapshot) Aux() *core.Aux { return s.aux }

// opts returns the core options for this snapshot's configured queue.
// The value is shared and must be treated as read-only.
func (s *Snapshot) opts() *core.Options { return &s.ropts }

// queryOptions returns opts() for a nil span, and otherwise a copy
// carrying sp so core opens its search span under it. The copy keeps
// the shared ropts read-only while preserving queue kind, directed mode
// and the ALT potential source; it is made only on the spanned path, so
// untraced queries stay allocation-free.
func (s *Snapshot) queryOptions(sp *obs.Span) *core.Options {
	if sp == nil {
		return &s.ropts
	}
	o := s.ropts
	o.Span = sp
	return &o
}

// Route finds an optimal semilightpath from src to dst over this
// snapshot's residual capacity. Latency and the blocked/served outcome
// land on the engine's route metrics; goal-directed queries additionally
// feed the directed latency histogram and settled-node counter.
func (s *Snapshot) Route(src, dst int) (*core.Result, error) {
	return s.RouteSpanned(src, dst, nil)
}

// RouteSpanned is Route with the query timed as an engine_route child
// of parent, annotated with the pinned epoch, and a core_search
// grandchild carrying the Dijkstra counters. A nil parent records
// nothing.
func (s *Snapshot) RouteSpanned(src, dst int, parent *obs.Span) (*core.Result, error) {
	sp := parent.StartChild(spanRoute)
	sp.SetInt(attrEpoch, int64(s.epoch))
	start := time.Now()
	res, err := s.aux.Route(src, dst, s.queryOptions(sp))
	elapsed := time.Since(start)
	s.eng.metrics.observeRoute(elapsed, err)
	s.eng.metrics.observeDirected(elapsed, res, s.ropts.Directed)
	sp.End()
	return res, err
}

// RouteFrom computes (or fetches from the engine's LRU cache) the
// single-source shortest semilightpath tree from src at this snapshot's
// epoch. Trees are cached per (source, epoch): a hit costs one map
// lookup instead of a Dijkstra pass over the auxiliary graph.
func (s *Snapshot) RouteFrom(src int) (*core.SourceTree, error) {
	return s.RouteFromSpanned(src, nil)
}

// RouteFromSpanned is RouteFrom with the query timed as an
// engine_routefrom child of parent. The SourceTree cache probe becomes
// an engine_cache_lookup grandchild annotated hit=true/false; a miss
// additionally carries the core_tree_search span of the Dijkstra pass
// that fills the cache. A nil parent records nothing.
func (s *Snapshot) RouteFromSpanned(src int, parent *obs.Span) (*core.SourceTree, error) {
	sp := parent.StartChild(spanRouteFrom)
	defer sp.End()
	sp.SetInt(attrEpoch, int64(s.epoch))
	start := time.Now()
	defer func() { s.eng.metrics.routeFromLatency.ObserveDuration(time.Since(start)) }()
	cache := s.eng.cache
	if cache == nil {
		return s.aux.RouteFrom(src, s.queryOptions(sp))
	}
	key := treeKey{source: src, epoch: s.epoch}
	look := sp.StartChild(spanCacheLookup)
	st, ok := cache.get(key)
	look.SetBool(attrHit, ok)
	look.End()
	if ok {
		return st, nil
	}
	// Compute outside the cache lock; concurrent misses on the same key
	// may duplicate the work, and the last insert wins — both trees are
	// equally correct, so this is only a transient inefficiency.
	st, err := s.aux.RouteFrom(src, s.queryOptions(sp))
	if err != nil {
		return nil, err
	}
	cache.put(key, st)
	return st, nil
}

// RouteVia answers a point-to-point query through the SourceTree cache:
// useful when many requests share a source at a stable epoch. The
// returned result carries no per-query search stats (the tree is
// shared).
func (s *Snapshot) RouteVia(src, dst int) (*core.Result, error) {
	st, err := s.RouteFrom(src)
	if err != nil {
		return nil, err
	}
	path, err := st.PathTo(dst)
	if err != nil {
		return nil, err
	}
	return &core.Result{Path: path, Cost: st.Dist(dst), Source: src, Dest: dst}, nil
}

// KShortest enumerates up to count lowest-cost semilightpaths src→dst
// on this snapshot.
func (s *Snapshot) KShortest(src, dst, count int) ([]*core.Result, error) {
	return s.aux.KShortest(src, dst, count, s.opts())
}

// RouteProtected finds a 1+1 protection pair (primary + link-disjoint
// backup) on this snapshot.
func (s *Snapshot) RouteProtected(src, dst int, po *core.ProtectOptions) (*core.ProtectedPair, error) {
	if po == nil {
		po = &core.ProtectOptions{}
	}
	if po.Route == nil {
		po.Route = s.opts()
	}
	return s.aux.RouteProtected(src, dst, po)
}

// Engine-level query forwarders: each pins the instantaneous current
// snapshot for exactly one call. Use Snapshot() directly when several
// queries must observe the same epoch, or to trace a query with the
// *Spanned methods.

// Route answers one optimal-semilightpath query on the current snapshot.
func (e *Engine) Route(src, dst int) (*core.Result, error) {
	return e.Snapshot().Route(src, dst)
}

// RouteFrom answers one single-source query on the current snapshot,
// through the SourceTree cache.
func (e *Engine) RouteFrom(src int) (*core.SourceTree, error) {
	return e.Snapshot().RouteFrom(src)
}

// KShortest answers one K-shortest-paths query on the current snapshot.
func (e *Engine) KShortest(src, dst, count int) ([]*core.Result, error) {
	return e.Snapshot().KShortest(src, dst, count)
}

// RouteProtected answers one protected-pair query on the current
// snapshot.
func (e *Engine) RouteProtected(src, dst int, po *core.ProtectOptions) (*core.ProtectedPair, error) {
	return e.Snapshot().RouteProtected(src, dst, po)
}

// TreeCached reports whether the SourceTree for (src, epoch) is resident
// in the cache, without counting a lookup or touching LRU order, so a
// caller can label a query cache-hit/miss without perturbing the
// statistics it reports on. Always false with caching disabled.
func (e *Engine) TreeCached(src int, epoch uint64) bool {
	return e.cache != nil && e.cache.peek(treeKey{source: src, epoch: epoch})
}

// String identifies the snapshot for logs.
func (s *Snapshot) String() string {
	return fmt.Sprintf("snapshot{epoch %d, %d nodes, %d free channels}",
		s.epoch, s.net.NumNodes(), s.net.TotalChannels())
}

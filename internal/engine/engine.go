// Package engine is the concurrent routing layer: it serves
// Route/RouteFrom/KShortest/RouteProtected queries against a *mutable*
// WDM network using epoch-based copy-on-write snapshots.
//
// The problem it solves: package core compiles a network into an
// immutable auxiliary graph (core.Aux), which is perfect for a static
// network but wrong for online circuit switching — every wavelength
// allocation changes the residual capacity, and the naive fix (rebuild
// the Aux inside every request, as internal/session originally did)
// puts the full O(k²n + km) construction on the latency path of every
// query and forbids concurrency.
//
// The engine inverts that: mutators (Allocate/Release/FailLink/
// RepairLink) pay for the rebuild, bumping a monotone epoch counter and
// atomically publishing a fresh immutable Snapshot {epoch, residual
// network, compiled Aux}. Readers never rebuild anything — they pin the
// current snapshot with one atomic load and route against it for as
// long as they like, even while later writers publish newer epochs.
// Any number of readers run concurrently with each other and with
// writers; writers are serialized among themselves.
//
// On top of the snapshots sit two throughput features:
//
//   - a bounded LRU cache of core.SourceTree results keyed by
//     (source, epoch), so repeated single-source queries at a stable
//     epoch cost one tree lookup instead of a Dijkstra pass; and
//   - batched request execution over a worker pool (RouteBatch), which
//     pins one snapshot for the whole batch and shares SourceTrees
//     between requests with a common source.
package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lightpath/internal/core"
	"lightpath/internal/graph"
	"lightpath/internal/obs"
	"lightpath/internal/wdm"
)

// Errors returned by the engine.
var (
	// ErrNilNetwork is returned for a nil base network.
	ErrNilNetwork = errors.New("engine: nil network")
	// ErrConflict is returned when Allocate finds a requested channel
	// already held (or its link failed) — typically because the path was
	// routed on an older epoch's snapshot. Route again and retry.
	ErrConflict = errors.New("engine: channel conflict")
	// ErrUnknownOwner is returned when releasing an owner holding nothing.
	ErrUnknownOwner = errors.New("engine: unknown owner")
	// ErrDuplicateOwner is returned when an owner ID already holds a lease.
	ErrDuplicateOwner = errors.New("engine: owner already holds a lease")
	// ErrLinkRange is returned for an out-of-range link ID.
	ErrLinkRange = errors.New("engine: link out of range")
)

// Channel identifies one (link, wavelength) resource unit.
type Channel struct {
	Link   int
	Lambda wdm.Wavelength
}

// Options configures a new engine.
type Options struct {
	// Queue selects the Dijkstra priority structure for all queries.
	// Zero means graph.QueueBinary, the practical default for repeated
	// small queries.
	Queue graph.QueueKind
	// CacheSize bounds the SourceTree LRU cache (entries). Zero means
	// DefaultCacheSize; negative disables caching.
	CacheSize int
	// MaxDeltaDepth bounds how many consecutive snapshots may be
	// produced by core.Aux.ApplyDelta before the engine recompacts with
	// a full compile (restoring the contiguous arc arena deltas patch
	// holes into). Zero means DefaultMaxDeltaDepth; negative disables
	// delta maintenance entirely, forcing a full compile every epoch.
	MaxDeltaDepth int
	// Directed selects the point-query search strategy for all snapshots
	// (core.DirectedPlain, core.DirectedBidi or core.DirectedALT). The
	// zero value is plain — the paper's exhaustive-toward-the-goal-set
	// search — on purpose: library callers and the experiments get the
	// Theorem 1 algorithm unless they ask otherwise, while wdmserve
	// opts into DirectedBidi as its measured-fastest default.
	// DirectedALT additionally maintains landmark vectors across
	// epochs; while they are stale the engine degrades to bidirectional
	// search and refreshes them off the query path.
	Directed core.DirectedMode
	// Landmarks overrides the ALT landmark count. Zero means
	// core.DefaultLandmarkCount; ignored unless Directed is DirectedALT.
	Landmarks int
}

// DefaultCacheSize is the SourceTree cache capacity when Options.CacheSize
// is zero.
const DefaultCacheSize = 64

// DefaultMaxDeltaDepth is the delta-chain bound when Options.MaxDeltaDepth
// is zero.
const DefaultMaxDeltaDepth = 32

// Stats are the engine's lifetime counters.
type Stats struct {
	Epoch       uint64 // current epoch (number of mutations applied)
	Allocations uint64
	Releases    uint64
	Conflicts   uint64 // Allocate calls rejected with ErrConflict
	// Rebuilds counts snapshots published, whatever produced them; with
	// synchronous publication it always equals Epoch+1 and decomposes as
	// Rebuilds == FullRebuilds + DeltaApplies.
	Rebuilds uint64
	// FullRebuilds counts snapshots compiled from scratch with
	// core.NewAuxWithLayout — the O(k²n + km) path: the epoch-0 build,
	// periodic recompactions when a delta chain reaches MaxDeltaDepth,
	// and fallbacks for mutations a delta cannot express.
	FullRebuilds uint64
	// DeltaApplies counts snapshots produced incrementally by
	// core.Aux.ApplyDelta — the O(affected fragment) path.
	DeltaApplies uint64
	ActiveOwners int
	HeldChannels int
}

// Engine owns the mutable occupancy state of one WDM network and
// publishes immutable routing snapshots. All methods are safe for
// concurrent use.
type Engine struct {
	base      *wdm.Network
	queue     graph.QueueKind
	directed  core.DirectedMode
	landmarks *landmarkManager // non-nil iff directed == DirectedALT
	cache     *treeCache
	metrics   *Metrics

	// mu guards the mutable occupancy state below and serializes
	// mutators; readers of occupancy take it in read mode. Routing never
	// takes it — routing reads the atomic snapshot.
	mu     sync.RWMutex
	inUse  map[Channel]int64 // channel -> owner
	owners map[int64][]Channel
	failed map[int]bool

	maxDeltaDepth int // < 0: deltas disabled

	snap atomic.Pointer[Snapshot]

	allocations  atomic.Uint64
	releases     atomic.Uint64
	conflicts    atomic.Uint64
	rebuilds     atomic.Uint64
	fullRebuilds atomic.Uint64
	deltaApplies atomic.Uint64

	ownerSeq atomic.Int64
}

// ReserveOwner mints a process-unique owner ID (1, 2, 3, …) for a
// subsequent Allocate or RouteAndAllocate. Concurrent front-ends (one
// serving session per TCP connection, say) must not invent owner IDs
// independently — Allocate rejects duplicates — so they draw from this
// shared sequence instead. A reserved ID that is never allocated is
// simply skipped.
func (e *Engine) ReserveOwner() int64 { return e.ownerSeq.Add(1) }

// New builds an engine over the installed network nw and publishes the
// epoch-0 snapshot (the full network: nothing allocated, nothing
// failed). The engine never mutates nw.
func New(nw *wdm.Network, opts *Options) (*Engine, error) {
	if nw == nil {
		return nil, ErrNilNetwork
	}
	e := &Engine{
		base:          nw,
		queue:         graph.QueueBinary,
		inUse:         make(map[Channel]int64),
		owners:        make(map[int64][]Channel),
		failed:        make(map[int]bool),
		maxDeltaDepth: DefaultMaxDeltaDepth,
	}
	cacheSize := DefaultCacheSize
	landmarks := 0
	if opts != nil {
		if opts.Queue != 0 {
			e.queue = opts.Queue
		}
		if opts.CacheSize != 0 {
			cacheSize = opts.CacheSize
		}
		if opts.MaxDeltaDepth != 0 {
			e.maxDeltaDepth = opts.MaxDeltaDepth
		}
		e.directed = opts.Directed
		landmarks = opts.Landmarks
	}
	if cacheSize > 0 {
		e.cache = newTreeCache(cacheSize)
	}
	if e.directed == core.DirectedALT {
		e.landmarks = newLandmarkManager(e, landmarks)
	}
	// Metrics must exist before the first rebuild so the epoch-0 compile
	// is measured too.
	e.metrics = newMetrics(e)
	if err := e.publish(0, nil, nil, mutNone); err != nil {
		return nil, err
	}
	// Seed the landmark vectors eagerly so the very first ALT query runs
	// goal-directed instead of falling back while an async refresh races.
	if err := e.RefreshLandmarks(); err != nil {
		return nil, fmt.Errorf("engine: initial landmarks: %w", err)
	}
	return e, nil
}

// Directed reports the engine's configured point-query search strategy.
func (e *Engine) Directed() core.DirectedMode { return e.directed }

// Base returns the installed (non-residual) network.
func (e *Engine) Base() *wdm.Network { return e.base }

// SetQueue overrides the Dijkstra queue for subsequent snapshots. The
// current snapshot keeps its queue until the next mutation republishes.
func (e *Engine) SetQueue(kind graph.QueueKind) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.queue = kind
	// Republish so the change takes effect without waiting for churn.
	// The residual is unchanged, so this is an empty (zero-link) delta.
	_ = e.publish(e.Epoch()+1, []int{}, nil, mutNone)
}

// Epoch reports the current epoch: 0 at construction, +1 per mutation.
func (e *Engine) Epoch() uint64 { return e.snap.Load().epoch }

// Snapshot pins the current routing snapshot. The returned value is
// immutable and remains valid (and consistent) forever; it simply goes
// stale as later mutations publish newer epochs.
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// publish produces and publishes the snapshot for the given epoch from
// the current occupancy state. changed lists the link IDs whose
// residual channel sets differ from the previous epoch; a nil slice
// means "unknown / everything" and forces a full compile. Callers must
// hold mu (or be the constructor, before the engine escapes).
//
// When the previous snapshot's delta chain is shorter than
// maxDeltaDepth and the mutation shape is expressible, the next
// snapshot is built incrementally with core.Aux.ApplyDelta —
// O(affected fragment) instead of the O(k²n + km) full compile.
// Otherwise (chain too deep, deltas disabled, or an inexpressible
// shape) it falls back to the full compile, which also recompacts the
// arc arena the patch chain fragments.
//
// A non-nil sp times the publication as an engine_publish child span
// annotated with the epoch and the path taken (mode=delta|full). kind
// classifies the mutation's effect on the residual arc set so the
// snapshot's add/remove sequence numbers — the landmark-admissibility
// witnesses — advance correctly.
func (e *Engine) publish(epoch uint64, changed []int, sp *obs.Span, kind mutationKind) error {
	psp := sp.StartChild(spanPublish)
	defer psp.End()
	psp.SetInt(attrEpoch, int64(epoch))
	start := time.Now()
	if prev := e.snap.Load(); prev != nil && changed != nil &&
		e.maxDeltaDepth >= 0 && prev.aux.DeltaDepth() < e.maxDeltaDepth {
		err := e.applyDelta(prev, epoch, changed, kind)
		if err == nil {
			e.rebuilds.Add(1)
			e.deltaApplies.Add(1)
			e.metrics.deltaLatency.ObserveDuration(time.Since(start))
			psp.SetStr(attrMode, "delta")
			return nil
		}
		if !errors.Is(err, core.ErrDeltaShape) {
			return err
		}
		// Inexpressible mutation: fall through to the full compile.
	}
	res := wdm.NewNetwork(e.base.NumNodes(), e.base.K())
	for _, l := range e.base.Links() {
		free := e.freeChannels(l.ID)
		// Fully-occupied and failed links are added channel-less so link
		// IDs stay aligned with the base network.
		if _, err := res.AddLink(l.From, l.To, free); err != nil {
			return fmt.Errorf("engine: residual link %d: %w", l.ID, err)
		}
	}
	res.SetConverter(e.base.Converter())
	// Compile inside the base network's layout so the gadget-node space
	// is identical at every epoch — the invariant that lets subsequent
	// mutations be applied as deltas no matter the occupancy level.
	aux, err := core.NewAuxWithLayout(e.base, res)
	if err != nil {
		return fmt.Errorf("engine: compile snapshot: %w", err)
	}
	e.snap.Store(e.newSnapshot(epoch, res, aux, kind))
	e.rebuilds.Add(1)
	e.fullRebuilds.Add(1)
	e.metrics.rebuildLatency.ObserveDuration(time.Since(start))
	psp.SetStr(attrMode, "full")
	return nil
}

// applyDelta builds epoch's snapshot incrementally on top of prev:
// patch the residual network's changed links, patch the compiled
// auxiliary graph's affected gadget fragments, publish.
func (e *Engine) applyDelta(prev *Snapshot, epoch uint64, changed []int, kind mutationKind) error {
	changes := make(map[int][]wdm.Channel, len(changed))
	for _, id := range changed {
		if id < 0 || id >= e.base.NumLinks() {
			return fmt.Errorf("%w: %d", ErrLinkRange, id)
		}
		changes[id] = e.freeChannels(id)
	}
	net, err := prev.net.PatchChannels(changes)
	if err != nil {
		return fmt.Errorf("engine: patch residual: %w", err)
	}
	aux, err := prev.aux.ApplyDelta(net, changed)
	if err != nil {
		return err
	}
	e.snap.Store(e.newSnapshot(epoch, net, aux, kind))
	return nil
}

// newSnapshot assembles a publishable snapshot: the epoch's residual and
// compiled aux plus the precomputed read-only query options and the
// add/remove sequence stamps derived from the previous snapshot and the
// mutation kind.
func (e *Engine) newSnapshot(epoch uint64, net *wdm.Network, aux *core.Aux, kind mutationKind) *Snapshot {
	var addSeq, removeSeq uint64
	if prev := e.snap.Load(); prev != nil {
		addSeq, removeSeq = prev.addSeq, prev.removeSeq
	}
	switch kind {
	case mutGrow:
		addSeq++
	case mutShrink:
		removeSeq++
	}
	s := &Snapshot{
		epoch: epoch, net: net, aux: aux, eng: e, queue: e.queue,
		addSeq: addSeq, removeSeq: removeSeq,
		ropts: core.Options{Queue: e.queue, Directed: e.directed},
	}
	if e.landmarks != nil {
		s.pot = snapPotential{mgr: e.landmarks, epoch: epoch, addSeq: addSeq, removeSeq: removeSeq}
		s.ropts.Potential = &s.pot
	}
	return s
}

// freeChannels lists link's currently free channels in base-network
// order: installed, in service, unheld. Callers must hold mu.
func (e *Engine) freeChannels(link int) []wdm.Channel {
	if e.failed[link] {
		return nil
	}
	l := e.base.Link(link)
	free := make([]wdm.Channel, 0, len(l.Channels))
	for _, ch := range l.Channels {
		if _, taken := e.inUse[Channel{Link: link, Lambda: ch.Lambda}]; !taken {
			free = append(free, ch)
		}
	}
	return free
}

// changedLinks dedups the link IDs of a claimed/released channel set —
// the delta surface of an Allocate or Release mutation.
func changedLinks(chans []Channel) []int {
	out := make([]int, 0, len(chans))
	seen := make(map[int]bool, len(chans))
	for _, c := range chans {
		if !seen[c.Link] {
			seen[c.Link] = true
			out = append(out, c.Link)
		}
	}
	return out
}

// Allocate claims every channel of path for owner, bumps the epoch and
// publishes the new snapshot. It is all-or-nothing: on ErrConflict (a
// channel already held, or a hop on a failed link) nothing is claimed.
// Each owner ID may hold at most one lease at a time.
func (e *Engine) Allocate(owner int64, path *wdm.Semilightpath) error {
	return e.allocate(owner, path, nil, -1)
}

// allocate is Allocate with an optional parent span (an engine_allocate
// child covers the claim and the publish) and retry-loop ordinal
// (attempt ≥ 0 is annotated; pass -1 outside the loop).
func (e *Engine) allocate(owner int64, path *wdm.Semilightpath, parent *obs.Span, attempt int) error {
	sp := parent.StartChild(spanAllocate)
	defer sp.End()
	if sp != nil && attempt >= 0 {
		sp.SetInt(attrAttempt, int64(attempt))
	}
	if path == nil {
		return errors.New("engine: nil path")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.owners[owner]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateOwner, owner)
	}
	chans := make([]Channel, 0, len(path.Hops))
	for _, h := range path.Hops {
		if h.Link < 0 || h.Link >= e.base.NumLinks() {
			return fmt.Errorf("%w: %d", ErrLinkRange, h.Link)
		}
		if _, installed := e.base.Link(h.Link).Has(h.Wavelength); !installed {
			return fmt.Errorf("engine: λ%d not installed on link %d", h.Wavelength, h.Link)
		}
		c := Channel{Link: h.Link, Lambda: h.Wavelength}
		if holder, taken := e.inUse[c]; taken {
			e.conflicts.Add(1)
			sp.SetBool(attrConflict, true)
			return fmt.Errorf("%w: (link %d, λ%d) held by %d", ErrConflict, c.Link, c.Lambda, holder)
		}
		if e.failed[h.Link] {
			e.conflicts.Add(1)
			sp.SetBool(attrConflict, true)
			return fmt.Errorf("%w: link %d is failed", ErrConflict, h.Link)
		}
		chans = append(chans, c)
	}
	// A path may not use one channel twice (wdm.Semilightpath.Validate
	// enforces chaining, not channel-distinctness across revisits of the
	// same link — guard here since channels are a claimable resource).
	seen := make(map[Channel]bool, len(chans))
	for _, c := range chans {
		if seen[c] {
			e.conflicts.Add(1)
			sp.SetBool(attrConflict, true)
			return fmt.Errorf("%w: path uses (link %d, λ%d) twice", ErrConflict, c.Link, c.Lambda)
		}
		seen[c] = true
	}
	for _, c := range chans {
		e.inUse[c] = owner
	}
	e.owners[owner] = chans
	e.allocations.Add(1)
	return e.publish(e.Epoch()+1, changedLinks(chans), sp, mutShrink)
}

// Release frees every channel owner holds, bumps the epoch and
// publishes the new snapshot.
func (e *Engine) Release(owner int64) error {
	return e.ReleaseSpanned(owner, nil)
}

// ReleaseSpanned is Release with the teardown (and the snapshot
// publication it triggers) timed as an engine_release child of parent.
func (e *Engine) ReleaseSpanned(owner int64, parent *obs.Span) error {
	sp := parent.StartChild(spanRelease)
	defer sp.End()
	e.mu.Lock()
	defer e.mu.Unlock()
	chans, ok := e.owners[owner]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownOwner, owner)
	}
	for _, c := range chans {
		delete(e.inUse, c)
	}
	delete(e.owners, owner)
	e.releases.Add(1)
	return e.publish(e.Epoch()+1, changedLinks(chans), sp, mutGrow)
}

// RouteAndAllocate routes s→t on the current snapshot and immediately
// claims the resulting path for owner. Because routing reads a pinned
// snapshot while other writers may land first, the claim can conflict;
// the engine then re-routes on the fresh snapshot and retries, up to
// maxRetries times, before giving up with ErrConflict. A core.ErrNoRoute
// from any attempt is returned as-is (the request is blocked). Every
// retry round lands on the engine_alloc_retries_total counter.
func (e *Engine) RouteAndAllocate(owner int64, s, t int) (*core.Result, error) {
	return e.RouteAndAllocateSpanned(owner, s, t, nil)
}

// FailLink takes a physical link out of service: its channels stop
// appearing in snapshots until RepairLink. Channels already held on the
// link stay held (teardown policy belongs to the caller); the returned
// slice lists the owners riding the link, ascending, so callers can
// decide what to drop. Failing an already-failed link is a no-op.
func (e *Engine) FailLink(link int) ([]int64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if link < 0 || link >= e.base.NumLinks() {
		return nil, fmt.Errorf("%w: %d", ErrLinkRange, link)
	}
	if e.failed[link] {
		return nil, nil
	}
	e.failed[link] = true
	var riders []int64
	seen := make(map[int64]bool)
	for c, owner := range e.inUse {
		if c.Link == link && !seen[owner] {
			seen[owner] = true
			riders = append(riders, owner)
		}
	}
	sort.Slice(riders, func(i, j int) bool { return riders[i] < riders[j] })
	if err := e.publish(e.Epoch()+1, []int{link}, nil, mutShrink); err != nil {
		return nil, err
	}
	return riders, nil
}

// RepairLink returns a failed link to service. Repairing a healthy
// link is a no-op; an out-of-range link is ErrLinkRange, mirroring
// FailLink.
func (e *Engine) RepairLink(link int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if link < 0 || link >= e.base.NumLinks() {
		return fmt.Errorf("%w: %d", ErrLinkRange, link)
	}
	if !e.failed[link] {
		return nil
	}
	delete(e.failed, link)
	return e.publish(e.Epoch()+1, []int{link}, nil, mutGrow)
}

// LinkFailed reports whether the link is currently out of service.
func (e *Engine) LinkFailed(link int) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.failed[link]
}

// FailedLinks lists the links currently out of service, ascending.
func (e *Engine) FailedLinks() []int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]int, 0, len(e.failed))
	for l := range e.failed {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}

// HolderOf reports which owner holds the given channel, if any.
func (e *Engine) HolderOf(link int, lam wdm.Wavelength) (int64, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	owner, ok := e.inUse[Channel{Link: link, Lambda: lam}]
	return owner, ok
}

// ChannelFree reports whether (link, λ) is installed, in service and
// unheld — i.e. whether it appears in the current snapshot.
func (e *Engine) ChannelFree(link int, lam wdm.Wavelength) bool {
	if link < 0 || link >= e.base.NumLinks() {
		return false
	}
	if _, installed := e.base.Link(link).Has(lam); !installed {
		return false
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.failed[link] {
		return false
	}
	_, taken := e.inUse[Channel{Link: link, Lambda: lam}]
	return !taken
}

// OwnerChannels returns the channels the owner currently holds (nil for
// unknown owners). The slice is a copy.
func (e *Engine) OwnerChannels(owner int64) []Channel {
	e.mu.RLock()
	defer e.mu.RUnlock()
	chans, ok := e.owners[owner]
	if !ok {
		return nil
	}
	out := make([]Channel, len(chans))
	copy(out, chans)
	return out
}

// HeldByWavelength counts currently-held channels per wavelength index
// (length K). Wavelength-assignment heuristics use it to rank colors.
func (e *Engine) HeldByWavelength() []int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	usage := make([]int, e.base.K())
	for c := range e.inUse {
		usage[c.Lambda]++
	}
	return usage
}

// HeldChannels reports the number of currently-claimed channels.
func (e *Engine) HeldChannels() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.inUse)
}

// Utilization is the fraction of installed channels currently held.
func (e *Engine) Utilization() float64 {
	total := e.base.TotalChannels()
	if total == 0 {
		return 0
	}
	return float64(e.HeldChannels()) / float64(total)
}

// Stats snapshots the engine's lifetime counters.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	owners, held := len(e.owners), len(e.inUse)
	e.mu.RUnlock()
	return Stats{
		Epoch:        e.Epoch(),
		Allocations:  e.allocations.Load(),
		Releases:     e.releases.Load(),
		Conflicts:    e.conflicts.Load(),
		Rebuilds:     e.rebuilds.Load(),
		FullRebuilds: e.fullRebuilds.Load(),
		DeltaApplies: e.deltaApplies.Load(),
		ActiveOwners: owners,
		HeldChannels: held,
	}
}

// CacheStats reports the SourceTree cache counters (zero value when
// caching is disabled).
func (e *Engine) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	return e.cache.stats()
}

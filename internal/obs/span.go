package obs

import (
	"strconv"
	"sync/atomic"
	"time"
)

// This file is the request-scoped tracing substrate: a Span tree built
// while one request executes, a Tracer that decides which requests to
// record, and a lock-free flight recorder (ring.go semantics inlined
// below) that retains the most recent completed trees plus an
// always-retained slow-request log.
//
// The design constraint is the same one the metric types obey: the
// *disabled* path must be free. Tracer.Start returns a nil *ReqTrace
// when recording is off (or the request is head-sampled out), every
// Span and ReqTrace method is nil-receiver safe, and nil spans thread
// through serve → engine → core without a single allocation — the
// AllocsPerRun tests in internal/engine pin this at 0 allocs/op.
// When recording is on, one request costs one ReqTrace allocation plus
// its fixed-capacity span slice; attribute appends may grow per-span
// slices but spans themselves never move (the slice never grows past
// its initial capacity, so *Span pointers handed to callers stay
// valid).
//
// A ReqTrace is built by exactly one goroutine; after Finish it is
// immutable and may be read concurrently (the ring's atomic pointer
// store publishes it).

// AttrKind discriminates the typed payload of an Attr.
type AttrKind uint8

// Attribute payload kinds.
const (
	AttrInt AttrKind = iota + 1
	AttrStr
	AttrBool
	AttrFloat
)

// Attr is one typed key/value annotation on a span. Exactly one payload
// field (per Kind) is meaningful.
type Attr struct {
	Key   string
	Kind  AttrKind
	Int   int64
	Str   string
	Bool  bool
	Float float64
}

// Span is one timed operation inside a request: a name (a compile-time
// constant, enforced by the metricname analyzer), start/end offsets in
// nanoseconds from the request's begin instant (monotonic — offsets are
// derived from time.Since on the ReqTrace's anchor), the index of its
// parent span, and typed attributes. Spans are created with StartChild
// and closed with End; an unclosed span keeps EndNs == 0.
type Span struct {
	Name    string
	Parent  int32 // index into the owning trace's span slice; -1 for the root
	StartNs int64
	EndNs   int64
	Attrs   []Attr

	req *ReqTrace
	idx int32
}

// StartChild opens a child span under s. Safe on a nil receiver (the
// disabled-tracing path), returning nil. When the owning request has
// reached its span capacity the child is dropped (counted on the
// trace) and nil is returned — nil children absorb all further calls.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	r := s.req
	if len(r.spans) == cap(r.spans) {
		r.DroppedSpans++
		return nil
	}
	idx := int32(len(r.spans))
	r.spans = append(r.spans, Span{
		Name:    name,
		Parent:  s.idx,
		StartNs: r.sinceBegin(),
		req:     r,
		idx:     idx,
	})
	return &r.spans[idx]
}

// End closes the span. Nil-safe; calling End twice keeps the later
// offset (harmless, single-goroutine construction makes it rare).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndNs = s.req.sinceBegin()
}

// Duration is the span's closed extent (0 for unclosed spans).
func (s *Span) Duration() time.Duration {
	if s == nil || s.EndNs < s.StartNs {
		return 0
	}
	return time.Duration(s.EndNs-s.StartNs) * time.Nanosecond
}

// SetInt attaches an integer attribute. Nil-safe.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Kind: AttrInt, Int: v})
}

// SetStr attaches a string attribute. Nil-safe.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Kind: AttrStr, Str: v})
}

// SetBool attaches a boolean attribute. Nil-safe.
func (s *Span) SetBool(key string, v bool) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Kind: AttrBool, Bool: v})
}

// SetFloat attaches a float attribute. Nil-safe. Non-finite values are
// stored as-is but render as 0 in JSON (JSON has no Inf/NaN literal).
func (s *Span) SetFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Kind: AttrFloat, Float: v})
}

// Attr looks an attribute up by key (first match wins). Nil-safe.
func (s *Span) Attr(key string) (Attr, bool) {
	if s == nil {
		return Attr{}, false
	}
	for _, a := range s.Attrs {
		if a.Key == key {
			return a, true
		}
	}
	return Attr{}, false
}

// ReqTrace is the span tree of one request: a root span (index 0) plus
// every child opened during execution, in start order. It is built by
// one goroutine between Tracer.Start and Tracer.Finish and is immutable
// afterwards.
type ReqTrace struct {
	ID           uint64
	Begin        time.Time // wall clock; carries the monotonic anchor
	DurationNs   int64     // set by Finish
	DroppedSpans int32     // children discarded at span capacity

	spans []Span
}

// sinceBegin is the monotonic offset from the request's begin instant.
func (r *ReqTrace) sinceBegin() int64 { return time.Since(r.Begin).Nanoseconds() }

// Root returns the request's root span. Nil-safe, so the whole span API
// chains off a possibly-nil trace: req.Root().StartChild(...).SetInt(...).
func (r *ReqTrace) Root() *Span {
	if r == nil {
		return nil
	}
	return &r.spans[0]
}

// Spans returns the trace's spans in start order (index 0 is the root).
// Callers must not mutate the slice.
func (r *ReqTrace) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// Span returns the first span with the given name, or nil.
func (r *ReqTrace) Span(name string) *Span {
	if r == nil {
		return nil
	}
	for i := range r.spans {
		if r.spans[i].Name == name {
			return &r.spans[i]
		}
	}
	return nil
}

// Duration is the request's total extent as measured by Finish.
func (r *ReqTrace) Duration() time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.DurationNs) * time.Nanosecond
}

// ring is a fixed-size lock-free buffer of completed traces. push is
// wait-free (one atomic fetch-add plus one atomic pointer store);
// readers walk the slots backwards from the write cursor. A reader
// racing a writer may observe a slot mid-replacement — it simply sees
// either the old or the new trace, both complete — so snapshots taken
// during traffic are approximate and snapshots at quiescence are exact.
type ring struct {
	slots []atomic.Pointer[ReqTrace]
	next  atomic.Uint64 //lint:atomic write cursor, fetch-add per push
}

func newRing(n int) *ring {
	return &ring{slots: make([]atomic.Pointer[ReqTrace], n)}
}

func (r *ring) push(t *ReqTrace) {
	i := r.next.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(t)
}

// recent returns up to n retained traces, newest first.
func (r *ring) recent(n int) []*ReqTrace {
	total := r.next.Load()
	if n < 0 {
		n = 0
	}
	if uint64(n) > total {
		n = int(total)
	}
	if n > len(r.slots) {
		n = len(r.slots)
	}
	out := make([]*ReqTrace, 0, n)
	for i := 0; i < n; i++ {
		slot := (total - 1 - uint64(i)) % uint64(len(r.slots))
		if t := r.slots[slot].Load(); t != nil {
			out = append(out, t)
		}
	}
	return out
}

// find returns the retained trace with the given ID, if any.
func (r *ring) find(id uint64) *ReqTrace {
	for i := range r.slots {
		if t := r.slots[i].Load(); t != nil && t.ID == id {
			return t
		}
	}
	return nil
}

// TracerOptions configures a Tracer.
type TracerOptions struct {
	// RingSize is the flight recorder's capacity in completed request
	// traces (the newest RingSize survive). 0 means DefaultRingSize.
	RingSize int
	// SlowRingSize bounds the slow-request log. 0 means
	// DefaultSlowRingSize.
	SlowRingSize int
	// SlowThreshold is the duration at or above which a finished request
	// is also retained in the slow log. 0 means DefaultSlowThreshold;
	// negative disables the slow log.
	SlowThreshold time.Duration
	// Sample head-samples recording: only every Sample-th request is
	// recorded (1, the default for 0, records every request). The
	// decision is made at Start, so sampled-out requests cost nothing.
	Sample int
	// MaxSpans caps the spans recorded per request; children beyond the
	// cap are dropped and counted. 0 means DefaultMaxSpans.
	MaxSpans int
	// Disabled starts the tracer off (SetEnabled turns it on later).
	Disabled bool
}

// Defaults for TracerOptions zero values.
const (
	DefaultRingSize      = 256
	DefaultSlowRingSize  = 64
	DefaultSlowThreshold = time.Millisecond
	DefaultMaxSpans      = 64
)

// Tracer decides which requests are recorded and retains their span
// trees: every finished sampled-in request lands in the flight
// recorder (a fixed ring — bounded retention, always on), and requests
// at or above the slow threshold are additionally retained in a
// separate slow log so a burst of fast traffic cannot evict the
// evidence of a slow one. All methods are safe for concurrent use and
// nil-receiver safe on the hot path (Start/Finish), so layers can
// thread an optional tracer without guards.
type Tracer struct {
	enabled  atomic.Bool  //lint:atomic toggled at runtime via SetEnabled
	sample   atomic.Int64 //lint:atomic head-sampling modulus
	slowNs   atomic.Int64 //lint:atomic slow threshold; < 0 disables
	seq      atomic.Uint64
	recorded atomic.Uint64
	slowRec  atomic.Uint64
	maxSpans int
	recent   *ring
	slow     *ring
}

// NewTracer builds a tracer with the given options (nil for defaults).
func NewTracer(opts *TracerOptions) *Tracer {
	o := TracerOptions{}
	if opts != nil {
		o = *opts
	}
	if o.RingSize <= 0 {
		o.RingSize = DefaultRingSize
	}
	if o.SlowRingSize <= 0 {
		o.SlowRingSize = DefaultSlowRingSize
	}
	if o.SlowThreshold == 0 {
		o.SlowThreshold = DefaultSlowThreshold
	}
	if o.Sample <= 0 {
		o.Sample = 1
	}
	if o.MaxSpans <= 0 {
		o.MaxSpans = DefaultMaxSpans
	}
	t := &Tracer{
		maxSpans: o.MaxSpans,
		recent:   newRing(o.RingSize),
		slow:     newRing(o.SlowRingSize),
	}
	t.sample.Store(int64(o.Sample))
	if o.SlowThreshold < 0 {
		t.slowNs.Store(-1)
	} else {
		t.slowNs.Store(o.SlowThreshold.Nanoseconds())
	}
	t.enabled.Store(!o.Disabled)
	return t
}

// Enabled reports whether Start currently records. Nil-safe.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetEnabled toggles recording at runtime.
func (t *Tracer) SetEnabled(on bool) { t.enabled.Store(on) }

// SetSample changes the head-sampling modulus (values < 1 mean 1:
// record everything).
func (t *Tracer) SetSample(n int) {
	if n < 1 {
		n = 1
	}
	t.sample.Store(int64(n))
}

// SetSlowThreshold changes the slow-log threshold (negative disables).
func (t *Tracer) SetSlowThreshold(d time.Duration) {
	if d < 0 {
		t.slowNs.Store(-1)
		return
	}
	t.slowNs.Store(d.Nanoseconds())
}

// Start begins the span tree for one request, returning nil — the
// zero-cost signal every downstream layer honours — when the tracer is
// nil, disabled, or the request is head-sampled out. name becomes the
// root span's name.
func (t *Tracer) Start(name string) *ReqTrace {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	id := t.seq.Add(1)
	if n := t.sample.Load(); n > 1 && id%uint64(n) != 0 {
		return nil
	}
	return newReqTrace(id, name, t.maxSpans)
}

// NewReqTrace starts a span tree outside any Tracer: it is recorded
// whether or not a recorder is on or would have sampled the request,
// and no ring ever retains it. A caller that renders a reply from the
// spans of its own query (wdmserve's explain) runs the query under its
// root and reads the tree back. The trace has ID 0 and room for
// DefaultMaxSpans spans.
func NewReqTrace(name string) *ReqTrace {
	return newReqTrace(0, name, DefaultMaxSpans)
}

func newReqTrace(id uint64, name string, maxSpans int) *ReqTrace {
	r := &ReqTrace{ID: id, Begin: time.Now(), spans: make([]Span, 1, maxSpans)}
	r.spans[0] = Span{Name: name, Parent: -1, req: r, idx: 0}
	return r
}

// Finish closes the request's root span, stamps the total duration and
// retains the trace: always in the flight recorder, and additionally in
// the slow log when the duration reaches the threshold. Nil-safe in
// both receiver and argument. After Finish the trace is immutable.
func (t *Tracer) Finish(r *ReqTrace) {
	t.finish(r, true)
}

// FinishRecentOnly is Finish without slow-log consideration, for traces
// whose duration is a lifetime rather than a latency (a connection, a
// session): they would otherwise always exceed the threshold and evict
// genuinely slow requests from the bounded slow ring.
func (t *Tracer) FinishRecentOnly(r *ReqTrace) {
	t.finish(r, false)
}

func (t *Tracer) finish(r *ReqTrace, slowEligible bool) {
	if t == nil || r == nil {
		return
	}
	d := r.sinceBegin()
	r.DurationNs = d
	r.spans[0].EndNs = d
	t.recent.push(r)
	t.recorded.Add(1)
	if !slowEligible {
		return
	}
	if s := t.slowNs.Load(); s >= 0 && d >= s {
		t.slow.push(r)
		t.slowRec.Add(1)
	}
}

// Recent returns up to n retained request traces, newest first.
// Nil-safe.
func (t *Tracer) Recent(n int) []*ReqTrace {
	if t == nil {
		return nil
	}
	return t.recent.recent(n)
}

// Slow returns up to n retained slow-request traces, newest first.
// Nil-safe.
func (t *Tracer) Slow(n int) []*ReqTrace {
	if t == nil {
		return nil
	}
	return t.slow.recent(n)
}

// Find returns the retained trace with the given ID — searching the
// flight recorder first, then the slow log (a slow trace can outlive
// its recorder slot) — or nil. Nil-safe.
func (t *Tracer) Find(id uint64) *ReqTrace {
	if t == nil {
		return nil
	}
	if r := t.recent.find(id); r != nil {
		return r
	}
	return t.slow.find(id)
}

// Recorded reports how many request traces Finish has retained.
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	return t.recorded.Load()
}

// SlowRecorded reports how many traces crossed the slow threshold.
func (t *Tracer) SlowRecorded() uint64 {
	if t == nil {
		return 0
	}
	return t.slowRec.Load()
}

// RegisterMetrics exposes the tracer's own health on a registry, so a
// /metrics scrape shows whether the recorder is on and how much it has
// retained.
func (t *Tracer) RegisterMetrics(reg *Registry) {
	reg.GaugeFunc("trace_recorded_total", func() float64 { return float64(t.Recorded()) })
	reg.GaugeFunc("trace_slow_recorded_total", func() float64 { return float64(t.SlowRecorded()) })
	reg.GaugeFunc("trace_recorder_enabled", func() float64 {
		if t.Enabled() {
			return 1
		}
		return 0
	})
}

// SlowThresholdString renders the current slow threshold for status
// lines ("off" when the slow log is disabled).
func (t *Tracer) SlowThresholdString() string {
	if t == nil {
		return "off"
	}
	ns := t.slowNs.Load()
	if ns < 0 {
		return "off"
	}
	return time.Duration(ns).String()
}

// SampleString renders the head-sampling rate ("1/N").
func (t *Tracer) SampleString() string {
	if t == nil {
		return "0"
	}
	return "1/" + strconv.FormatInt(t.sample.Load(), 10)
}

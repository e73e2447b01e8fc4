package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"lightpath/internal/core"
	"lightpath/internal/engine"
	"lightpath/internal/graph"
	"lightpath/internal/obs"
	"lightpath/internal/serve"
	"lightpath/internal/wdm"
)

// Span names of the traced replay, one per layer boundary it times.
const (
	spanCoreSearch      = "core.search"
	spanEngineRoute     = "engine.route"
	spanEngineRouteFrom = "engine.routefrom"
	spanEnginePublish   = "engine.publish"
	spanObsRecord       = "obs.record"
	spanServeRequest    = "serve.request"
)

// span is one timed call of the traced replay. Spans of one request
// share Req; times are nanoseconds from the start of the replay.
type span struct {
	Req     int    `json:"req"`
	Name    string `json:"name"`
	Verb    string `json:"verb"`
	Phase   string `json:"phase"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Blocked bool   `json:"blocked,omitempty"`
	Settled int    `json:"settled,omitempty"`
	Relaxed int    `json:"relaxed,omitempty"`
	Bytes   int    `json:"reply_bytes,omitempty"`
}

func (s *span) us() float64 { return float64(s.End-s.Start) / 1e3 }

// spanLog keeps the replay's spans in memory. A nil log is the untraced
// replay: it reads no clock and records nothing.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) now() int64 {
	if l == nil {
		return 0
	}
	return int64(time.Since(l.t0))
}

func (l *spanLog) add(s span) {
	if l != nil {
		l.spans = append(l.spans, s)
	}
}

// writeJSON writes the spans as one JSON array.
func (l *spanLog) writeJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(l.spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayer executes a workload's request stream in process on an
// engine, Tracer and Session configured like wdmserve's defaults. Each
// read first makes shadow calls on the pinned snapshot — core.Aux.Route,
// then Snapshot.Route or RouteFrom — and then runs the serve path;
// writes call the engine directly.
type replayer struct {
	eng    *engine.Engine
	sess   *serve.Session
	tracer *obs.Tracer
	sink   bytes.Buffer
	out    *bufio.Writer
	copts  core.Options
	log    *spanLog
	phase  string
	req    int
	leases map[int]int64 // alloc Seq -> owner, 0 when blocked

	// limit, when positive, stops the replay after that many requests.
	limit int
	// start and steps time the replay: steps[i] is when request i+1
	// began, so a traced replay's prefix can be set against an untraced
	// replay limited to the same requests.
	start time.Time
	steps []time.Duration
}

// errLimit ends a replay at its request limit.
var errLimit = errors.New("replay limit reached")

// step begins the next request.
func (r *replayer) step() error {
	if r.limit > 0 && r.req >= r.limit {
		return errLimit
	}
	if r.log != nil {
		r.steps = append(r.steps, time.Since(r.start))
	}
	r.req++
	return nil
}

// engineOptions maps wdmserve's flag defaults to engine options.
func engineOptions(d serverDefaults) (*engine.Options, error) {
	o := &engine.Options{CacheSize: d.cache}
	queues := map[string]graph.QueueKind{"fibonacci": graph.QueueFibonacci, "binary": graph.QueueBinary,
		"pairing": graph.QueuePairing, "linear": graph.QueueLinear}
	modes := map[string]core.DirectedMode{"plain": core.DirectedPlain, "bidi": core.DirectedBidi, "alt": core.DirectedALT}
	var ok bool
	if o.Queue, ok = queues[d.queue]; !ok {
		return nil, fmt.Errorf("unknown wdmserve default queue %q", d.queue)
	}
	if o.Directed, ok = modes[d.directed]; !ok {
		return nil, fmt.Errorf("unknown wdmserve default search mode %q", d.directed)
	}
	return o, nil
}

// newReplayer builds the in-process stack. The background metric
// sampler and health rules wdmserve also starts are left out: they run
// off the request path.
func newReplayer(nw *wdm.Network, d serverDefaults, log *spanLog) (*replayer, error) {
	opts, err := engineOptions(d)
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(nw, opts)
	if err != nil {
		return nil, err
	}
	r := &replayer{eng: eng, log: log, leases: map[int]int64{}}
	r.copts = core.Options{Queue: opts.Queue, Directed: eng.Directed()}
	r.out = bufio.NewWriter(&r.sink)
	r.tracer = obs.NewTracer(&obs.TracerOptions{RingSize: d.recorderSize, Sample: d.traceSample, Disabled: !d.recorder})
	r.tracer.SetSlowThreshold(d.slowThreshold)
	r.tracer.RegisterMetrics(eng.Metrics())
	r.sess = serve.NewSession(eng, r.out, &serve.SessionOptions{
		Telemetry: serve.NewTelemetry(eng.Metrics()),
		Tracer:    r.tracer,
	})
	return r, nil
}

func (r *replayer) do(q request) error {
	if err := r.step(); err != nil {
		return err
	}
	switch q.Verb {
	case vRoute:
		return r.route(q)
	case vRouteFrom:
		return r.routeFrom(q)
	case vAlloc:
		owner, _, err := r.alloc(q.S, q.T)
		r.leases[q.Seq] = owner
		return err
	default:
		owner := r.leases[q.Seq]
		delete(r.leases, q.Seq)
		if owner == 0 {
			return nil
		}
		return r.release(owner)
	}
}

// route makes the three calls of a route read — core.Aux.Route,
// Snapshot.Route and the serve path — in an order rotated by request,
// so no layer is always the one that runs on cold caches.
func (r *replayer) route(q request) error {
	snap := r.eng.Snapshot()
	var res, eres *core.Result
	var err, eerr error
	calls := [3]func() error{
		func() error {
			t0 := r.log.now()
			res, err = snap.Aux().Route(q.S, q.T, &r.copts)
			t1 := r.log.now()
			cs := span{Req: r.req, Name: spanCoreSearch, Verb: "route", Phase: r.phase, Start: t0, End: t1,
				Blocked: errors.Is(err, core.ErrNoRoute)}
			if res != nil {
				cs.Settled, cs.Relaxed = res.Stats.Settled, res.Stats.Relaxed
			}
			r.log.add(cs)
			if err != nil && !cs.Blocked {
				return err
			}
			return nil
		},
		func() error {
			t0 := r.log.now()
			eres, eerr = snap.Route(q.S, q.T)
			r.log.add(span{Req: r.req, Name: spanEngineRoute, Verb: "route", Phase: r.phase, Start: t0, End: r.log.now(),
				Blocked: errors.Is(eerr, core.ErrNoRoute)})
			return nil
		},
		func() error { return r.serveRead(q) },
	}
	for k := 0; k < len(calls); k++ {
		if err := calls[(r.req+k)%len(calls)](); err != nil {
			return err
		}
	}
	// The two layers answer the same query on the same snapshot.
	if errors.Is(eerr, core.ErrNoRoute) != errors.Is(err, core.ErrNoRoute) ||
		(res != nil && (eres == nil || !sameCost(eres.Cost, res.Cost))) {
		return fmt.Errorf("route %d %d at epoch %d: core and engine disagree", q.S, q.T, snap.Epoch())
	}
	return nil
}

func (r *replayer) routeFrom(q request) error {
	snap := r.eng.Snapshot()
	t0 := r.log.now()
	if _, err := snap.RouteFrom(q.S); err != nil {
		return err
	}
	r.log.add(span{Req: r.req, Name: spanEngineRouteFrom, Verb: "routefrom", Phase: r.phase, Start: t0, End: r.log.now()})
	// Served second, the serve path finds the tree this call cached:
	// serve.routefrom times the serve layer's own work on a hit.
	return r.serveRead(q)
}

// serveRead runs one read through the serve path the TCP front-end
// uses — Tracer.Start, Session.ExecReq, Tracer.Finish, then the flush —
// into a memory sink.
func (r *replayer) serveRead(q request) error {
	line := q.line(0)
	t0 := r.log.now()
	tr := r.tracer.Start("serve_request")
	t1 := r.log.now()
	_, err := r.sess.ExecReq(line, tr)
	if err != nil {
		if !errors.Is(err, core.ErrNoRoute) {
			return fmt.Errorf("%s: %w", line, err)
		}
		fmt.Fprintf(r.out, "error: %v\n", err)
	}
	t2 := r.log.now()
	r.tracer.Finish(tr)
	t3 := r.log.now()
	if err := r.out.Flush(); err != nil {
		return err
	}
	t4 := r.log.now()
	v := q.Verb.String()
	r.log.add(span{Req: r.req, Name: spanObsRecord, Verb: v, Phase: r.phase, Start: t0, End: t1})
	r.log.add(span{Req: r.req, Name: spanObsRecord, Verb: v, Phase: r.phase, Start: t2, End: t3})
	r.log.add(span{Req: r.req, Name: spanServeRequest, Verb: v, Phase: r.phase, Start: t0, End: t4, Bytes: r.sink.Len()})
	r.sink.Reset()
	return nil
}

// alloc routes on the current snapshot and claims the path: the two
// calls an alloc makes. It implements preloadExecutor.
func (r *replayer) alloc(s, t int) (int64, bool, error) {
	snap := r.eng.Snapshot()
	t0 := r.log.now()
	res, err := snap.Route(s, t)
	t1 := r.log.now()
	blocked := errors.Is(err, core.ErrNoRoute)
	r.log.add(span{Req: r.req, Name: spanEngineRoute, Verb: "alloc", Phase: r.phase, Start: t0, End: t1, Blocked: blocked})
	if blocked {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	owner := r.eng.ReserveOwner()
	if err := r.eng.Allocate(owner, res.Path); err != nil {
		return 0, false, fmt.Errorf("allocate %d->%d: %w", s, t, err)
	}
	r.log.add(span{Req: r.req, Name: spanEnginePublish, Verb: "alloc", Phase: r.phase, Start: t1, End: r.log.now()})
	return owner, true, nil
}

func (r *replayer) release(owner int64) error {
	t0 := r.log.now()
	if err := r.eng.Release(owner); err != nil {
		return fmt.Errorf("release %d: %w", owner, err)
	}
	r.log.add(span{Req: r.req, Name: spanEnginePublish, Verb: "release", Phase: r.phase, Start: t0, End: r.log.now()})
	return nil
}

// replay drives the workload's stream for this seed through r, up to
// r's request limit.
func replay(w *workload, r *replayer, nodes int, seed int64) error {
	r.start = time.Now()
	if err := replayAll(w, r, nodes, seed); err != nil && !errors.Is(err, errLimit) {
		return err
	}
	return nil
}

func replayAll(w *workload, r *replayer, nodes int, seed int64) error {
	if w.preload != nil {
		r.phase = "preload"
		if _, err := runPreload(preloadCounter{r}, newPreloadPlan(*w.preload, nodes)); err != nil {
			return err
		}
	}
	streams := make([]*closedStream, conns)
	for i := range streams {
		streams[i] = newClosedStream(w, nodes, seed, i)
	}
	r.phase = "warmup"
	for k := 0; k < w.warmup*conns; k++ {
		if err := r.do(streams[k%conns].next()); err != nil {
			return err
		}
	}
	r.phase = "timed"
	for k := 0; k < w.replayReqs; k++ {
		if err := r.do(streams[k%conns].next()); err != nil {
			return err
		}
	}
	return nil
}

// preloadCounter gives each preload step its own request id.
type preloadCounter struct{ r *replayer }

func (p preloadCounter) alloc(s, t int) (int64, bool, error) {
	if err := p.r.step(); err != nil {
		return 0, false, err
	}
	return p.r.alloc(s, t)
}

func (p preloadCounter) release(lease int64) error {
	if err := p.r.step(); err != nil {
		return err
	}
	return p.r.release(lease)
}

// readSample returns the first n reads of the workload's stream, which
// can be repeated on one engine because they change nothing.
func readSample(w *workload, nodes int, seed int64, n int) []request {
	var out []request
	st := newClosedStream(w, nodes, seed, 0)
	for len(out) < n {
		if q := st.next(); q.Verb == vRoute || q.Verb == vRouteFrom {
			out = append(out, q)
		}
	}
	return out
}

// allocsPerRead measures heap allocations per read through the serve
// path of the replayer's engine, with the given request tracer (nil:
// recorder off).
func (r *replayer) allocsPerRead(tracer *obs.Tracer, reads []request) float64 {
	sess := serve.NewSession(r.eng, r.out, &serve.SessionOptions{
		Telemetry: serve.NewTelemetry(r.eng.Metrics()),
		Tracer:    tracer,
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, q := range reads {
		tr := tracer.Start("serve_request")
		if _, err := sess.ExecReq(q.line(0), tr); err != nil {
			fmt.Fprintf(r.out, "error: %v\n", err)
		}
		tracer.Finish(tr)
		_ = r.out.Flush() // the bytes.Buffer sink cannot fail
		r.sink.Reset()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(len(reads))
}

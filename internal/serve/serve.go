// Package serve implements the wdmserve line protocol — parsing,
// dispatch against a shared routing engine, and reply encoding —
// independently of any particular transport. The stdin REPL, the
// -script runner and the TCP server (tcp.go) all execute commands
// through the same Session, so protocol behaviour (including every
// error string) is defined exactly once.
//
// A Session is the per-client execution context: it holds the client's
// reply writer and per-client toggles (trace on/off) while sharing the
// engine — and therefore epochs, leases and telemetry — with every
// other session in the process. Lease IDs come from the engine's
// process-wide sequence (engine.ReserveOwner), so sessions on different
// connections can allocate concurrently without colliding.
//
// Sessions are not safe for concurrent use; one goroutine drives each
// (the engine underneath is concurrency-safe). Replies are written in
// the same line-oriented format the original REPL produced, byte for
// byte, so scripted deployments survive the transport change.
package serve

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"lightpath/internal/core"
	"lightpath/internal/engine"
	"lightpath/internal/obs"
)

// SessionOptions configures a Session.
type SessionOptions struct {
	// Workers sets the batch verb's worker pool size (0 = GOMAXPROCS).
	Workers int
	// Telemetry, when non-nil, records per-verb request latencies and
	// outcome counters. Sessions sharing an engine should share one
	// Telemetry built from that engine's registry.
	Telemetry *Telemetry
	// Tracer, when non-nil, is the request-span recorder: Exec records
	// each command as a span tree (and the recent/slow/tracejson verbs
	// answer from its flight recorder). Sessions sharing an engine should
	// share one Tracer. A nil Tracer disables recording at zero cost and
	// makes the trace-query verbs answer "recorder not configured".
	Tracer *obs.Tracer
	// Sampler, when non-nil, is the metric-history sampler the `history`
	// verb answers from. Nil makes the verb answer "sampler not
	// configured".
	Sampler *obs.Sampler
	// Health, when non-nil, is the SLO evaluator the `health` verb (and
	// the stats health column) answer from. Nil renders health as "off".
	Health *obs.Health
}

// Session executes protocol commands for one client against a shared
// engine.
type Session struct {
	eng     *engine.Engine
	w       io.Writer
	workers int
	tel     *Telemetry
	tracer  *obs.Tracer
	sampler *obs.Sampler
	health  *obs.Health
	tracing bool // trace on: append a trace summary to route/alloc answers
}

// NewSession builds the execution context for one client writing its
// replies to w.
func NewSession(eng *engine.Engine, w io.Writer, opts *SessionOptions) *Session {
	s := &Session{eng: eng, w: w}
	if opts != nil {
		s.workers = opts.Workers
		s.tel = opts.Telemetry
		s.tracer = opts.Tracer
		s.sampler = opts.Sampler
		s.health = opts.Health
	}
	return s
}

// processStart anchors the stats verb's uptime column. Process-wide by
// design: every session reports the same uptime regardless of when its
// connection arrived.
var processStart = time.Now()

// CleanLine strips a trailing '#' comment and surrounding whitespace;
// an empty result means the line carries no command.
func CleanLine(line string) string {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	return strings.TrimSpace(line)
}

// Exec runs one command line; the bool result requests shutdown. A
// non-nil error is a protocol-level answer (blocked request, bad
// arguments, unknown lease) the transport should render as an "error:"
// line — it never means the session is broken. Blank lines are no-ops.
//
// When the session has a Tracer, Exec owns the whole request-trace
// lifecycle: one serve_request root per command. Transports that start
// the trace earlier (the TCP server starts it before admission so queue
// wait is visible) call ExecReq with their trace instead.
func (s *Session) Exec(line string) (quit bool, err error) {
	req := s.tracer.Start(spanRequest)
	quit, err = s.ExecReq(line, req)
	s.tracer.Finish(req)
	return quit, err
}

// ExecReq is Exec executing inside the caller's request trace (nil for
// none): the verb and outcome land on the root span and the dispatch
// runs under a serve_exec child, with engine and core spans nested
// below it.
func (s *Session) ExecReq(line string, req *obs.ReqTrace) (quit bool, err error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return false, nil
	}
	cmd := fields[0]
	root := req.Root()
	root.SetStr(attrVerb, cmd)
	if s.tel != nil {
		start := time.Now()
		defer func() { s.tel.observe(cmd, time.Since(start), err) }()
	}
	sp := root.StartChild(spanExec)
	quit, err = s.exec(cmd, fields[1:], sp)
	sp.End()
	if err != nil {
		root.SetStr(attrOutcome, outcomeError)
	} else {
		root.SetStr(attrOutcome, outcomeOK)
	}
	return quit, err
}

// exec dispatches one parsed command; sp (possibly nil) is the request's
// serve_exec span, threaded into the engine for the verbs that route or
// mutate.
func (s *Session) exec(cmd string, rest []string, sp *obs.Span) (bool, error) {
	// trace takes a keyword argument, every other verb integers.
	if cmd == "trace" {
		return false, s.execTrace(rest)
	}
	ints := make([]int, len(rest))
	for i, f := range rest {
		v, err := strconv.Atoi(f)
		if err != nil {
			return false, fmt.Errorf("%s: bad argument %q", cmd, f)
		}
		ints[i] = v
	}
	argc := func(want int) error {
		if len(ints) != want {
			return fmt.Errorf("%s: want %d arguments, got %d", cmd, want, len(ints))
		}
		return nil
	}

	switch cmd {
	case "route":
		if err := argc(2); err != nil {
			return false, err
		}
		if s.tracing {
			return false, s.traceRoute(ints[0], ints[1])
		}
		res, err := s.eng.Snapshot().RouteSpanned(ints[0], ints[1], sp)
		if err != nil {
			return false, err
		}
		s.printResult(res)
	case "explain":
		if err := argc(2); err != nil {
			return false, err
		}
		return false, s.explain(ints[0], ints[1])
	case "routefrom":
		if err := argc(1); err != nil {
			return false, err
		}
		st, err := s.eng.Snapshot().RouteFromSpanned(ints[0], sp)
		if err != nil {
			return false, err
		}
		n := s.eng.Base().NumNodes()
		for t := 0; t < n; t++ {
			if !st.Reachable(t) {
				fmt.Fprintf(s.w, "  %d -> %d: unreachable\n", ints[0], t)
				continue
			}
			fmt.Fprintf(s.w, "  %d -> %d: cost %g\n", ints[0], t, st.Dist(t))
		}
	case "kshortest":
		if err := argc(3); err != nil {
			return false, err
		}
		paths, err := s.eng.KShortest(ints[0], ints[1], ints[2])
		if err != nil {
			return false, err
		}
		for i, p := range paths {
			fmt.Fprintf(s.w, "  #%d cost %g  %s\n", i+1, p.Cost, p.Path.String(s.eng.Base()))
		}
	case "protect":
		if err := argc(2); err != nil {
			return false, err
		}
		pair, err := s.eng.RouteProtected(ints[0], ints[1], nil)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(s.w, "  primary cost %g  %s\n", pair.Primary.Cost, pair.Primary.Path.String(s.eng.Base()))
		fmt.Fprintf(s.w, "  backup  cost %g  %s\n", pair.Backup.Cost, pair.Backup.Path.String(s.eng.Base()))
	case "batch":
		if len(ints) == 0 || len(ints)%2 != 0 {
			return false, fmt.Errorf("batch: want an even number of endpoints")
		}
		reqs := make([]engine.Request, 0, len(ints)/2)
		for i := 0; i < len(ints); i += 2 {
			reqs = append(reqs, engine.Request{From: ints[i], To: ints[i+1]})
		}
		snap := s.eng.Snapshot()
		out := snap.RouteBatch(reqs, s.workers)
		fmt.Fprintf(s.w, "batch of %d at epoch %d:\n", len(reqs), snap.Epoch())
		for _, r := range out {
			switch {
			case errors.Is(r.Err, core.ErrNoRoute):
				fmt.Fprintf(s.w, "  %d -> %d: blocked\n", r.From, r.To)
			case r.Err != nil:
				fmt.Fprintf(s.w, "  %d -> %d: error: %v\n", r.From, r.To, r.Err)
			default:
				fmt.Fprintf(s.w, "  %d -> %d: cost %g\n", r.From, r.To, r.Result.Cost)
			}
		}
	case "alloc":
		if err := argc(2); err != nil {
			return false, err
		}
		lease := s.eng.ReserveOwner()
		// trace on runs the claim under a private span tree, as explain
		// does, and renders its summary from that tree.
		parent := sp
		var traced *obs.ReqTrace
		if s.tracing {
			traced = obs.NewReqTrace(spanRequest)
			parent = traced.Root()
		}
		res, err := s.eng.RouteAndAllocateSpanned(lease, ints[0], ints[1], parent)
		an := s.readTraced(ints[0], traced)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(s.w, "lease %d (epoch %d): ", lease, s.eng.Epoch())
		s.printResult(res)
		if traced != nil {
			// Gadget arcs are fixed by the installed network, so the
			// current snapshot counts the conversions available to the
			// path exactly as the one it was routed on did.
			s.printTraceSummary(ints[0], ints[1], res, s.eng.Snapshot().Aux(), an)
		}
	case "release":
		if err := argc(1); err != nil {
			return false, err
		}
		if err := s.eng.ReleaseSpanned(int64(ints[0]), sp); err != nil {
			return false, err
		}
		fmt.Fprintf(s.w, "released %d (epoch %d)\n", ints[0], s.eng.Epoch())
	case "fail":
		if err := argc(1); err != nil {
			return false, err
		}
		riders, err := s.eng.FailLink(ints[0])
		if err != nil {
			return false, err
		}
		fmt.Fprintf(s.w, "failed link %d (epoch %d), riding leases: %v\n", ints[0], s.eng.Epoch(), riders)
	case "repair":
		if err := argc(1); err != nil {
			return false, err
		}
		if err := s.eng.RepairLink(ints[0]); err != nil {
			return false, err
		}
		fmt.Fprintf(s.w, "repaired link %d (epoch %d)\n", ints[0], s.eng.Epoch())
	case "epoch":
		fmt.Fprintf(s.w, "epoch %d\n", s.eng.Epoch())
	case "stats":
		st := s.eng.Stats()
		cs := s.eng.CacheStats()
		snap := s.eng.Metrics().Snapshot()
		fmt.Fprintf(s.w, "epoch %d  allocs %d  releases %d  conflicts %d  owners %d  held %d  util %.3f\n",
			st.Epoch, st.Allocations, st.Releases, st.Conflicts, st.ActiveOwners, st.HeldChannels,
			s.eng.Utilization())
		fmt.Fprintf(s.w, "cache: %d/%d entries  lookups %d  hits %d  misses %d  evictions %d  hit rate %.3f\n",
			cs.Size, cs.Capacity, cs.Lookups, cs.Hits, cs.Misses, cs.Evictions, cs.HitRate())
		lat := snap["engine_route_latency_ns"].(obs.HistogramSnapshot)
		fmt.Fprintf(s.w, "routes %d (blocked %d, traced %d)  retries %d  rebuilds %d\n",
			snap["engine_routes_total"], snap["engine_routes_blocked_total"],
			snap["engine_traced_routes_total"], snap["engine_alloc_retries_total"], st.Rebuilds)
		fmt.Fprintf(s.w, "route latency: p50 %s  p95 %s  p99 %s  (n=%d, max %s)\n",
			nsDuration(lat.P50), nsDuration(lat.P95), nsDuration(lat.P99), lat.Count, nsDuration(lat.Max))
		healthState := "off"
		if s.health != nil {
			healthState = s.health.Status().String()
		}
		fmt.Fprintf(s.w, "uptime %s  health %s\n",
			time.Since(processStart).Round(time.Millisecond), healthState)
	case "health":
		if err := argc(0); err != nil {
			return false, err
		}
		if s.health == nil {
			return false, fmt.Errorf("health: not configured")
		}
		fmt.Fprintf(s.w, "health %s\n", s.health.Status())
		for _, r := range s.health.Detail() {
			s.printRuleState(r)
		}
	case "history":
		if len(ints) > 1 {
			return false, fmt.Errorf("history: want at most one argument, got %d", len(ints))
		}
		if s.sampler == nil {
			return false, fmt.Errorf("history: sampler not configured")
		}
		n := DefaultTraceList
		if len(ints) == 1 {
			if ints[0] <= 0 {
				return false, fmt.Errorf("history: count must be positive, got %d", ints[0])
			}
			n = ints[0]
		}
		s.printHistory(n)
	case "recent", "slow":
		if len(ints) > 1 {
			return false, fmt.Errorf("%s: want at most one argument, got %d", cmd, len(ints))
		}
		if s.tracer == nil {
			return false, fmt.Errorf("%s: request recorder not configured", cmd)
		}
		n := DefaultTraceList
		if len(ints) == 1 {
			if ints[0] <= 0 {
				return false, fmt.Errorf("%s: count must be positive, got %d", cmd, ints[0])
			}
			n = ints[0]
		}
		var traces []*obs.ReqTrace
		if cmd == "recent" {
			traces = s.tracer.Recent(n)
		} else {
			traces = s.tracer.Slow(n)
		}
		if len(traces) == 0 {
			fmt.Fprintln(s.w, "no traces retained")
			return false, nil
		}
		for _, r := range traces {
			s.printTraceLine(r)
		}
	case "tracejson":
		if err := argc(1); err != nil {
			return false, err
		}
		if s.tracer == nil {
			return false, fmt.Errorf("tracejson: request recorder not configured")
		}
		r := s.tracer.Find(uint64(ints[0]))
		if r == nil {
			return false, fmt.Errorf("tracejson: trace %d not retained", ints[0])
		}
		if err := obs.EncodeReqTrace(s.w, r); err != nil {
			return false, err
		}
	case "metrics":
		if err := s.eng.Metrics().WriteJSON(s.w); err != nil {
			return false, err
		}
	case "quit", "exit":
		return true, nil
	default:
		return false, fmt.Errorf("unknown command %q", cmd)
	}
	return false, nil
}

// execTrace toggles (or reports) per-answer trace summaries.
func (s *Session) execTrace(args []string) error {
	switch {
	case len(args) == 0:
		state := "off"
		if s.tracing {
			state = "on"
		}
		fmt.Fprintf(s.w, "trace %s\n", state)
		return nil
	case len(args) == 1 && args[0] == "on":
		s.tracing = true
		fmt.Fprintln(s.w, "trace on")
		return nil
	case len(args) == 1 && args[0] == "off":
		s.tracing = false
		fmt.Fprintln(s.w, "trace off")
		return nil
	default:
		return fmt.Errorf("trace: want on|off, got %q", strings.Join(args, " "))
	}
}

// printTraceLine renders one flight-recorder entry as a summary line:
// id, total duration, verb, outcome and span count, with the dominant
// child span (queue wait vs execution) split out when present.
func (s *Session) printTraceLine(r *obs.ReqTrace) {
	verb, outcome := "-", "-"
	if a, ok := r.Root().Attr(attrVerb); ok {
		verb = a.Str
	}
	if a, ok := r.Root().Attr(attrOutcome); ok {
		outcome = a.Str
	}
	fmt.Fprintf(s.w, "  trace %d  %s  verb %s  outcome %s  spans %d",
		r.ID, r.Duration(), verb, outcome, len(r.Spans()))
	if q := r.Span(spanQueueWait); q != nil {
		fmt.Fprintf(s.w, "  queue %s", q.Duration())
	}
	if e := r.Span(spanExec); e != nil {
		fmt.Fprintf(s.w, "  exec %s", e.Duration())
	}
	fmt.Fprintln(s.w)
}

// printRuleState renders one health rule's last evaluation.
func (s *Session) printRuleState(r obs.RuleState) {
	value := "unknown"
	if r.Known {
		value = fmt.Sprintf("%g", r.Value)
	}
	fmt.Fprintf(s.w, "  %s: %s(%s) %s threshold %g  streak %d/%d  severity %s",
		r.Name, r.Kind, r.Metric, value, r.Threshold, r.Streak, r.Sustain, r.Severity)
	if r.Firing {
		fmt.Fprint(s.w, "  FIRING")
	}
	fmt.Fprintln(s.w)
}

// printHistory renders the newest n sampled frames, newest first, with
// the operational rates derived from each frame pair: requests/shed per
// second from the serve counters, blocked routes per second from the
// engine counter, and the route p99 over that frame's window.
func (s *Session) printHistory(n int) {
	hist := s.sampler.History()
	frames := hist.Last(n + 1) // one extra: each line needs its predecessor
	if len(frames) < 2 {
		fmt.Fprintln(s.w, "no history sampled yet (need two frames)")
		return
	}
	now := time.Now()
	for i := 0; i+1 < len(frames); i++ {
		newer, older := frames[i], frames[i+1]
		fmt.Fprintf(s.w, "  frame %d  age %s  req/s %s  shed/s %s  blocked/s %s",
			newer.Seq, now.Sub(newer.At).Round(time.Millisecond),
			frameRate(newer, older, "serve_requests_total"),
			frameRate(newer, older, "serve_shed_total"),
			frameRate(newer, older, "engine_routes_blocked_total"))
		if nh, ok := newer.Histogram("engine_route_latency_ns"); ok {
			if oh, ok := older.Histogram("engine_route_latency_ns"); ok {
				d := nh.Sub(oh)
				fmt.Fprintf(s.w, "  route p99 %s (n=%d)", nsDuration(d.P99), d.Count)
			}
		}
		fmt.Fprintln(s.w)
	}
}

// frameRate derives one counter's per-second rate between two frames,
// rendered for a history line ("-" when unknowable, counter resets
// clamp to 0 exactly as History.Rate does).
func frameRate(newer, older *obs.Frame, metric string) string {
	v1, ok1 := newer.Number(metric)
	v0, ok0 := older.Number(metric)
	dt := newer.At.Sub(older.At).Seconds()
	if !ok1 || !ok0 || dt <= 0 {
		return "-"
	}
	d := v1 - v0
	if d < 0 {
		d = 0
	}
	return fmt.Sprintf("%.1f", d/dt)
}

// nsDuration renders a nanosecond quantity from a histogram as a
// human-readable duration.
func nsDuration(ns float64) time.Duration {
	return time.Duration(ns) * time.Nanosecond
}

// printResult renders one routing answer.
func (s *Session) printResult(res *core.Result) {
	fmt.Fprintf(s.w, "cost %g  %s\n", res.Cost, res.Path.String(s.eng.Base()))
}

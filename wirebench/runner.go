package main

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"lightpath/internal/core"
	"lightpath/internal/serve"
	"lightpath/internal/wdm"
)

// runner holds one run's state from set-up to the ledger.
type runner struct {
	w      *workload
	seed   int64
	timed  time.Duration
	trace  bool
	bin    string
	outDir string

	nw     *wdm.Network
	dec    *pathDecoder
	probes []probe
	srv    *server
	wr     *wireRun
	res    result

	setup       []float64 // seconds from exec to the first correct probe reply
	preAllocs   samples   // preload alloc latencies
	preReleases samples   // preload release latencies
	teardown    samples   // release latencies of the final teardown
	exact       *answerChecker
	st0, st1    serverStats // around the timed phase
	cpu         *cpuSampler
	rssMB       float64
}

func (rn *runner) fail(err error) {
	if err != nil {
		rn.res.failures = append(rn.res.failures, err)
	}
}

// run performs the whole run. A returned error means the run could not
// be carried out; failed correctness checks land in the result.
func (rn *runner) run() (*result, error) {
	var err error
	if rn.nw, err = buildInstance(rn.w.instance); err != nil {
		return nil, err
	}
	rn.dec = newPathDecoder(rn.nw)
	if rn.probes, err = newProbes(rn.nw, rn.seed); err != nil {
		return nil, fmt.Errorf("oracle probes: %w", err)
	}
	if err := rn.startServer(); err != nil {
		return nil, err
	}
	err = rn.wire()
	if rn.wr != nil {
		rn.wr.close()
	}
	if serr := rn.srv.stop(); err == nil && serr != nil {
		err = fmt.Errorf("wdmserve exit: %w: %s", serr, rn.srv.stderr.String())
	}
	if err != nil {
		return nil, err
	}
	if !rn.res.correct() {
		// Count every request the run recorded, and the preflight, as
		// attempted and each failed check as a failure.
		rn.res.attempted, rn.res.failed = len(rn.probes), len(rn.res.failures)
		for i := range rn.wr.outcomes {
			rn.res.attempted += len(rn.wr.outcomes[i])
		}
		return &rn.res, nil
	}
	if err := rn.wireMetrics(); err != nil {
		return nil, err
	}
	if rn.trace {
		if err := rn.traced(); err != nil {
			return nil, err
		}
	}
	return &rn.res, nil
}

// startServer launches wdmserve setups times, timing each from exec to
// the first correct probe reply, and keeps the last one running.
func (rn *runner) startServer() error {
	for i := 0; i < rn.w.setups; i++ {
		srv, err := launch(rn.bin, rn.w.instance)
		if err != nil {
			return err
		}
		d, err := firstProbe(srv, rn.probes[0])
		if err != nil {
			_ = srv.stop()
			return err
		}
		rn.setup = append(rn.setup, d.Seconds())
		if i == rn.w.setups-1 {
			rn.srv = srv
			return nil
		}
		if err := srv.stop(); err != nil {
			return fmt.Errorf("wdmserve exit: %w", err)
		}
	}
	return errors.New("no set-up runs")
}

func firstProbe(srv *server, p probe) (time.Duration, error) {
	c, err := serve.Dial(srv.addr, 5*time.Second)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, err
	}
	reply, err := c.Do(fmt.Sprintf("route %d %d", p.s, p.t))
	if err != nil {
		return 0, err
	}
	d := time.Since(srv.exec)
	return d, checkProbe(p, reply)
}

// wire runs the load against the server and every wire-side check.
func (rn *runner) wire() error {
	w := rn.w
	wr, err := newWireRun(rn.nw.NumNodes(), rn.srv.addr)
	if err != nil {
		return err
	}
	rn.wr = wr
	c := wr.cl[0]
	if err := runProbes(c, rn.probes); err != nil {
		rn.fail(fmt.Errorf("preflight: %w", err))
		return nil
	}
	if w.preload != nil {
		if err := rn.preload(); err != nil {
			return err
		}
		if !rn.res.correct() {
			return nil
		}
	}
	streams := make([]*closedStream, conns)
	for i := range streams {
		streams[i] = newClosedStream(w, rn.nw.NumNodes(), rn.seed, i)
	}
	if err := wr.closedPhase(streams, w.warmup, time.Time{}); err != nil {
		return err
	}
	if rn.st0, err = fetchStats(c); err != nil {
		return err
	}
	wr.timedStart = time.Now()
	rn.cpu = rn.srv.sampleCPU(wr.timedStart, rn.timed/slices)
	if err := wr.closedPhase(streams, 0, wr.timedStart.Add(rn.timed)); err != nil {
		return err
	}
	if err := rn.cpu.wait(); err != nil {
		return err
	}
	if rn.st1, err = fetchStats(c); err != nil {
		return err
	}
	if rn.rssMB, err = rn.srv.peakRSSMB(); err != nil {
		return err
	}
	if rn.teardown, err = wr.teardown(); err != nil {
		return err
	}
	st, err := fetchStats(c)
	if err != nil {
		return err
	}
	rn.fail(checkDrained(st, wr.granted.Load(), wr.released.Load()))
	if err := runProbes(c, rn.probes); err != nil {
		rn.fail(fmt.Errorf("after teardown: %w", err))
	}
	return rn.checkReplies()
}

// preload runs the fixed preload, checks the server holds exactly the
// channels the printed paths claim, and builds the exact checker on the
// residual network those paths leave.
func (rn *runner) preload() error {
	pre := &wirePreload{r: rn.wr, held: map[int64]outcome{}}
	held, err := runPreload(pre, newPreloadPlan(*rn.w.preload, rn.nw.NumNodes()))
	if err != nil {
		return err
	}
	rn.preAllocs, rn.preReleases = pre.allocUs, pre.relUs
	paths := make([]*wdm.Semilightpath, 0, len(held))
	hops := 0
	for _, lease := range held {
		o := pre.held[lease]
		p, _, err := rn.dec.checkPathReply(rn.nw, o.req.S, o.req.T, o.reply)
		if err != nil {
			rn.fail(fmt.Errorf("preload: %w", err))
			return nil
		}
		paths = append(paths, p)
		hops += p.Len()
	}
	st, err := fetchStats(rn.wr.cl[0])
	if err != nil {
		return err
	}
	if st.held != int64(hops) || st.owners != int64(len(held)) {
		rn.fail(fmt.Errorf("preload: server holds %d channels for %d owners, granted paths hold %d for %d",
			st.held, st.owners, hops, len(held)))
		return nil
	}
	res, err := residual(rn.nw, paths)
	if err != nil {
		rn.fail(fmt.Errorf("preload: %w", err))
		return nil
	}
	if rn.w.readOnly() {
		rn.exact, err = newAnswerChecker(rn.dec, res, true)
	}
	return err
}

// oracleSample is how many read answers per run are re-checked with the
// independent oracle on the residual network.
const oracleSample = 8

// checkReplies checks every recorded answer: against the exact residual
// network for sparse300-read's reads, and otherwise for a valid path on
// the base network costing no less than the base optimum. Every printed
// path must also avoid the channels the client's own leases surely held
// while it was served.
func (rn *runner) checkReplies() error {
	base, err := newAnswerChecker(rn.dec, rn.nw, false)
	if err != nil {
		return err
	}
	var reads []outcome
	var answers []pathAnswer
	released := map[int64]time.Time{}
	for i := range rn.wr.outcomes {
		for k := range rn.wr.outcomes[i] {
			o := &rn.wr.outcomes[i][k]
			if !o.answered() {
				continue
			}
			ac := base
			if rn.exact != nil && (o.req.Verb == vRoute || o.req.Verb == vRouteFrom) {
				ac = rn.exact
				if o.req.Verb == vRoute {
					reads = append(reads, *o)
				}
			}
			var p *wdm.Semilightpath
			switch o.req.Verb {
			case vRoute, vAlloc:
				p, err = ac.checkPath(o.req.S, o.req.T, o.reply)
			case vRouteFrom:
				err = ac.checkRouteFrom(o.req.S, o.lines)
			case vRelease:
				released[o.lease] = o.sent
			}
			if err != nil {
				rn.fail(fmt.Errorf("%s answer: %w", o.req.Verb, err))
				return nil
			}
			if p != nil {
				answers = append(answers, pathAnswer{o, p})
			}
		}
	}
	rn.fail(checkHeldChannels(answers, released))
	rng := rand.New(rand.NewSource(rn.seed*1000003 + 11))
	for k := 0; k < oracleSample && len(reads) > 0; k++ {
		o := reads[rng.Intn(len(reads))]
		rn.fail(rn.exact.checkOracle(o.req.S, o.req.T, o.reply))
	}
	return nil
}

// ledger accumulates metrics, turning a refused percentile into an
// error rather than a number.
type ledger struct {
	ms  *[]metric
	err error
}

func (l *ledger) add(name, unit string, v float64, n int) {
	*l.ms = append(*l.ms, metric{name: name, unit: unit, value: v, n: n})
}

func (l *ledger) pct(name string, s samples, p float64) float64 {
	v, err := s.percentile(p)
	if err != nil && l.err == nil {
		l.err = fmt.Errorf("%s: %w", name, err)
	}
	l.add(name, "us", v, len(s))
	return v
}

// slice adds the median over the timed phase's slices of a verb's p50.
func (l *ledger) slice(name string, ws *wireStats, v verb) {
	all, p50, err := ws.sliceP50(v)
	if err != nil && l.err == nil {
		l.err = fmt.Errorf("%s: %w", name, err)
	}
	l.add(name, "us", p50, len(all))
}

func (l *ledger) ratio(name string, num, den int) {
	v, err := ratio(num, den)
	if err != nil && l.err == nil {
		l.err = fmt.Errorf("%s: %w", name, err)
	}
	l.add(name, "ratio", v, den)
}

func (l *ledger) mean(name, unit string, s samples) {
	v, err := s.mean()
	if err != nil && l.err == nil {
		l.err = fmt.Errorf("%s: %w", name, err)
	}
	l.add(name, unit, v, len(s))
}

// wireStats summarises the timed phase of the wire run: pooled over
// the phase, and per slice by completion time.
type wireStats struct {
	lat                        map[verb]samples
	slice                      [slices]map[verb]samples
	answered                   [slices]int
	sent, busy, blocked, paths int
}

func (rn *runner) wireStats() wireStats {
	ws := wireStats{lat: map[verb]samples{}}
	for k := range ws.slice {
		ws.slice[k] = map[verb]samples{}
	}
	span := rn.timed / slices
	for i := range rn.wr.outcomes {
		for _, o := range rn.wr.outcomes[i] {
			if !o.timed {
				continue
			}
			ws.sent++
			if !o.answered() {
				ws.busy++
				continue
			}
			ws.lat[o.req.Verb] = append(ws.lat[o.req.Verb], o.latUs)
			if k := int(o.done.Sub(rn.wr.timedStart) / span); k >= 0 && k < slices {
				ws.slice[k][o.req.Verb] = append(ws.slice[k][o.req.Verb], o.latUs)
				ws.answered[k]++
			}
			if o.req.Verb == vRoute || o.req.Verb == vAlloc {
				ws.paths++
				if o.kind == serve.ReplyBlocked {
					ws.blocked++
				}
			}
		}
	}
	return ws
}

// minSlices is how many slices must hold enough samples for a p50.
const minSlices = 3

// sliceP50 is the median over the slices of each slice's p50, taken
// over the slices with enough samples for one; a verb too sparse to
// fill minSlices slices fails the run.
func (ws *wireStats) sliceP50(v verb) (samples, float64, error) {
	var p50s []float64
	for k := range ws.slice {
		if p, err := ws.slice[k][v].percentile(0.5); err == nil {
			p50s = append(p50s, p)
		}
	}
	if len(p50s) < minSlices {
		return nil, 0, fmt.Errorf("only %d of %d slices hold enough %s samples for a p50", len(p50s), slices, v)
	}
	return ws.lat[v], median(p50s), nil
}

// wireMetrics computes the end-to-end metrics and the wire-side
// per-layer ones.
func (rn *runner) wireMetrics() error {
	ws := rn.wireStats()
	wr := rn.wr
	rn.res.attempted, rn.res.failed = ws.sent, ws.busy
	span := (rn.timed / slices).Seconds()
	var rates, cpuPerReq []float64
	for k := 0; k < slices; k++ {
		rates = append(rates, float64(ws.answered[k])/span)
		cpuPerReq = append(cpuPerReq, us(rn.cpu.at[k+1]-rn.cpu.at[k])/float64(ws.answered[k]))
	}

	e := &ledger{ms: &rn.res.e2e}
	e.add("setup_s", "s", median(rn.setup), len(rn.setup))
	e.slice("route_p50_us", &ws, vRoute)
	e.slice("routefrom_p50_us", &ws, vRouteFrom)
	e.ratio("blocking_ratio", ws.blocked, ws.paths)
	e.add("server_rss_mb", "MiB", rn.rssMB, 1)

	var gaps, held samples
	for i := range wr.gaps {
		gaps = append(gaps, wr.gaps[i]...)
		held = append(held, wr.heldSamples[i]...)
	}
	l := &ledger{ms: &rn.res.layer}
	if rn.trace {
		l.add("throughput_rps", "1/s", median(rates), ws.sent-ws.busy)
		l.add("server_cpu_us_per_req", "us", median(cpuPerReq), ws.sent)
		allocs := ws.lat[vAlloc]
		if rn.w.readOnly() {
			// The timed phase only reads: report the untimed preload's
			// allocs and its and the teardown's releases, each taken one
			// at a time on one connection.
			allocs = rn.preAllocs
			l.pct("alloc_p50_us", rn.preAllocs, 0.5)
			l.pct("release_p50_us", append(rn.preReleases, rn.teardown...), 0.5)
			rn.res.notes = append(rn.res.notes,
				"alloc_p50_us and release_p50_us are the preload's and teardown's: the timed phase only reads")
		} else {
			l.slice("alloc_p50_us", &ws, vAlloc)
			l.slice("release_p50_us", &ws, vRelease)
		}
		l.pct("wire.route_us_p99", ws.lat[vRoute], 0.99)
		l.pct("wire.alloc_us_p99", allocs, 0.99)
		l.pct("load.lateness_us_p99", gaps, 0.99)
		l.mean("load.leases_held_mean", "count", held)
		l.ratio("failed_ratio", ws.busy, ws.sent)
		l.ratio("serve.busy_ratio", ws.busy, ws.sent)
		l.ratio("engine.cache_hit_ratio", int(rn.st1.hits-rn.st0.hits), int(rn.st1.lookups-rn.st0.lookups))
		l.ratio("engine.conflict_ratio", int(rn.st1.conflicts), int(rn.st1.allocs+rn.st1.conflicts))
	}
	return errors.Join(e.err, l.err)
}

// traced runs the in-process replay twice — with the span log and
// without — and derives the per-layer metrics from the spans.
func (rn *runner) traced() error {
	defs, err := readDefaults(rn.bin)
	if err != nil {
		return err
	}
	mode, err := bannerMode(rn.srv.banner)
	if err != nil {
		return err
	}
	if mode != defs.directed {
		return fmt.Errorf("server banner says %s search, its -directed default is %s", mode, defs.directed)
	}
	nodes := rn.nw.NumNodes()
	log := &spanLog{}
	rep, err := newReplayer(rn.nw, defs, log)
	if err != nil {
		return err
	}
	if got := rep.eng.Directed().String(); got != mode {
		return fmt.Errorf("traced replay runs %s search, the server %s search", got, mode)
	}
	log.t0 = time.Now()
	if err := replay(rn.w, rep, nodes, rn.seed); err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	// The untraced replay repeats the first third of the requests; the
	// traced replay's time to the same point gives the tracing overhead.
	plain, err := newReplayer(rn.nw, defs, nil)
	if err != nil {
		return err
	}
	plain.limit = rep.req / 3
	if err := replay(rn.w, plain, nodes, rn.seed); err != nil {
		return fmt.Errorf("untraced replay: %w", err)
	}
	plainWall := time.Since(plain.start)
	tracedWall := rep.steps[plain.limit]
	if err := log.writeJSON(filepath.Join(rn.outDir, fmt.Sprintf("spans-%s-%d.json", rn.w.name, rn.seed))); err != nil {
		return err
	}

	reads := readSample(rn.w, nodes, rn.seed, 200)
	withRec := rep.allocsPerRead(rep.tracer, reads)
	without := rep.allocsPerRead(nil, reads)

	var compile samples
	for i := 0; i < 5; i++ {
		t := time.Now()
		if _, err := core.NewAux(rn.nw); err != nil {
			return err
		}
		compile = append(compile, float64(time.Since(t))/float64(time.Millisecond))
	}
	st := rep.eng.Stats()
	routeP50, _ := rn.metric("route_p50_us")
	return rn.layerMetrics(log, layerExtras{
		servesAllocs: withRec, obsAllocs: withRec - without, reads: len(reads),
		compileMs: median(compile), fullRebuilds: int(st.FullRebuilds), rebuilds: int(st.Rebuilds),
		wireRouteP50: routeP50, tracedWall: tracedWall, plainWall: plainWall,
	})
}

func (rn *runner) metric(name string) (float64, bool) {
	for _, m := range rn.res.e2e {
		if m.name == name {
			return m.value, true
		}
	}
	return 0, false
}

type layerExtras struct {
	servesAllocs, obsAllocs float64
	reads                   int
	compileMs               float64
	fullRebuilds, rebuilds  int
	wireRouteP50            float64
	tracedWall, plainWall   time.Duration
}

// layerMetrics folds the span log into per-layer metrics. A route
// read's three calls run in rotated order, so a self time is the
// difference of pooled p50s — engine.self = engine.route − core.search,
// serve.self = serve.request − engine.route — which no call order
// biases.
func (rn *runner) layerMetrics(log *spanLog, x layerExtras) error {
	var search, blockedSearch, engRoute, engRouteFrom, publish, serveRoute, serveRouteFrom samples
	var settled, relaxed, bytes samples
	record := map[int]float64{}
	timedPublishes := 0
	for i := range log.spans {
		s := &log.spans[i]
		switch {
		case s.Name == spanCoreSearch:
			search = append(search, s.us())
			if s.Blocked {
				blockedSearch = append(blockedSearch, s.us())
			} else {
				settled = append(settled, float64(s.Settled))
				relaxed = append(relaxed, float64(s.Relaxed))
			}
		case s.Name == spanEngineRoute && s.Verb == "route":
			engRoute = append(engRoute, s.us())
		case s.Name == spanEngineRouteFrom:
			engRouteFrom = append(engRouteFrom, s.us())
		case s.Name == spanEnginePublish:
			publish = append(publish, s.us())
			if s.Phase == "timed" {
				timedPublishes++
			}
		case s.Name == spanObsRecord:
			record[s.Req] += s.us()
		case s.Name == spanServeRequest:
			bytes = append(bytes, float64(s.Bytes))
			if s.Verb == "route" {
				serveRoute = append(serveRoute, s.us())
			} else {
				serveRouteFrom = append(serveRouteFrom, s.us())
			}
		}
	}
	var recordUs samples
	for _, v := range record {
		recordUs = append(recordUs, v)
	}
	l := &ledger{ms: &rn.res.layer}
	serveP50 := l.pct("serve.request_us_p50", serveRoute, 0.5)
	engP50 := l.pct("engine.route_us_p50", engRoute, 0.5)
	coreP50 := l.pct("core.search_us_p50", search, 0.5)
	l.add("serve.self_us_p50", "us", serveP50-engP50, len(serveRoute))
	l.add("serve.wire_us_p50", "us", x.wireRouteP50-serveP50, len(serveRoute))
	l.add("serve.allocs_per_req", "count", x.servesAllocs, x.reads)
	l.pct("serve.routefrom_us_p50", serveRouteFrom, 0.5)
	l.mean("serve.reply_bytes_mean", "bytes", bytes)
	l.pct("obs.record_us_p50", recordUs, 0.5)
	l.add("obs.allocs_per_req", "count", x.obsAllocs, x.reads)
	l.pct("engine.route_us_p99", engRoute, 0.99)
	l.add("engine.self_us_p50", "us", engP50-coreP50, len(engRoute))
	l.pct("engine.routefrom_us_p50", engRouteFrom, 0.5)
	l.pct("engine.publish_us_p50", publish, 0.5)
	l.pct("engine.publish_us_p99", publish, 0.99)
	l.ratio("engine.full_rebuild_ratio", x.fullRebuilds, x.rebuilds)
	l.pct("core.search_us_p99", search, 0.99)
	l.mean("core.settled_per_query", "count", settled)
	l.mean("core.relaxed_per_query", "count", relaxed)
	l.pct("core.blocked_search_us_p50", blockedSearch, 0.5)
	l.add("core.compile_ms", "ms", x.compileMs, 5)
	l.add("trace.overhead_ratio", "ratio", x.tracedWall.Seconds()/x.plainWall.Seconds()-1, 1)
	if l.err != nil {
		return l.err
	}
	if w := x.wireRouteP50; w > 0 {
		rn.res.notes = append(rn.res.notes, fmt.Sprintf(
			"share of route_p50_us %.1fus: core.search %.3f  engine.self %.3f  serve.self %.3f  wire %.3f",
			w, coreP50/w, (engP50-coreP50)/w, (serveP50-engP50)/w, (w-serveP50)/w))
	}
	rn.res.notes = append(rn.res.notes,
		fmt.Sprintf("engine.publish spans: %d in total, %d in the timed phase", len(publish), timedPublishes),
		fmt.Sprintf("replay wall time over the first third of its requests: traced %.3fs, untraced %.3fs",
			x.tracedWall.Seconds(), x.plainWall.Seconds()))
	return nil
}

package main

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lightpath/internal/serve"
)

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// outcome is one answered request as the generator saw it.
type outcome struct {
	req   request
	reply string   // first reply line
	lines []string // routefrom: every reply line
	kind  serve.ReplyKind
	lease int64 // alloc: the granted lease, 0 when not granted; release: the lease freed
	latUs float64
	timed bool
	sent  time.Time // when the request was about to be written
	done  time.Time // when the reply was complete
}

// answered reports whether the request got an answer rather than a
// busy shed or an error: a blocked route is a correct answer.
func (o *outcome) answered() bool {
	return o.kind == serve.ReplyOK || o.kind == serve.ReplyBlocked
}

// exchange sends one request, reads its reply and times the two.
func exchange(c *serve.Client, q request, lease int64, nodes int) (outcome, error) {
	sent := time.Now()
	if err := c.Send(q.line(lease)); err != nil {
		return outcome{req: q}, fmt.Errorf("send %q: %w", q.line(lease), err)
	}
	o, err := readReply(c, q, lease, nodes)
	o.sent, o.done = sent, time.Now()
	o.latUs = us(o.done.Sub(sent))
	return o, err
}

// readReply reads one request's whole reply — one line, or one line per
// node for a routefrom that was not shed — and parses an alloc's lease.
// A protocol error, which a correct generator never provokes, is an
// error.
func readReply(c *serve.Client, q request, lease int64, nodes int) (outcome, error) {
	o := outcome{req: q, lease: lease}
	first, err := c.ReadLine()
	if err != nil {
		return o, fmt.Errorf("reply to %q: %w", q.line(lease), err)
	}
	o.reply, o.kind = first, serve.Classify(first)
	switch {
	case o.kind == serve.ReplyProtocolError:
		return o, fmt.Errorf("protocol error: %q answered %q", q.line(lease), first)
	case q.Verb == vRouteFrom && o.kind == serve.ReplyOK:
		o.lines = append(make([]string, 0, nodes), first)
		for len(o.lines) < nodes {
			l, err := c.ReadLine()
			if err != nil {
				return o, fmt.Errorf("routefrom %d reply: %w", q.S, err)
			}
			o.lines = append(o.lines, l)
		}
	case q.Verb == vAlloc && o.kind == serve.ReplyOK:
		if o.lease, _ = serve.ParseLease(first); o.lease == 0 {
			return o, fmt.Errorf("alloc reply without a lease: %q", first)
		}
	}
	return o, nil
}

// wireRun is the generator's state for one run against one server.
type wireRun struct {
	nodes int
	cl    [conns]*serve.Client

	held              atomic.Int64 // leases granted and not yet released
	granted, released atomic.Int64

	// leases maps each connection's alloc Seq to its granted lease (0:
	// not granted), for the closed loop that sends the release.
	leases [conns]map[int]int64

	outcomes [conns][]outcome
	// gaps are the generator's own time between a reply and the next
	// send on a connection; heldSamples the leases held at each send.
	gaps        [conns]samples
	heldSamples [conns]samples

	// timedStart begins the timed phase, which lasts the run's timed
	// duration.
	timedStart time.Time
}

func newWireRun(nodes int, addr string) (*wireRun, error) {
	r := &wireRun{nodes: nodes}
	for i := range r.cl {
		c, err := serve.Dial(addr, 5*time.Second)
		if err != nil {
			r.close()
			return nil, err
		}
		// A run ends well inside this; a hung server fails it instead of
		// hanging the benchmark.
		if err := c.SetDeadline(time.Now().Add(150 * time.Second)); err != nil {
			c.Close()
			r.close()
			return nil, err
		}
		r.cl[i] = c
		r.leases[i] = map[int]int64{}
	}
	return r, nil
}

func (r *wireRun) close() {
	for _, c := range r.cl {
		if c != nil {
			c.Close()
		}
	}
}

// count updates the lease counters for one answered request.
func (r *wireRun) count(o *outcome) {
	switch {
	case o.req.Verb == vAlloc && o.lease != 0:
		r.held.Add(1)
		r.granted.Add(1)
	case o.req.Verb == vRelease && o.kind == serve.ReplyOK:
		r.held.Add(-1)
		r.released.Add(1)
	}
}

// unreleased lists the leases granted and not successfully released,
// from every outcome recorded so far.
func (r *wireRun) unreleased() []int64 {
	live := map[int64]bool{}
	var order []int64
	for i := range r.outcomes {
		for _, o := range r.outcomes[i] {
			switch {
			case o.req.Verb == vAlloc && o.lease != 0:
				live[o.lease] = true
				order = append(order, o.lease)
			case o.req.Verb == vRelease && o.kind == serve.ReplyOK:
				delete(live, o.lease)
			}
		}
	}
	var out []int64
	for _, l := range order {
		if live[l] {
			out = append(out, l)
		}
	}
	return out
}

// closedPhase runs every connection's closed loop, either for count
// requests each (untimed warm-up) or until the deadline (timed).
func (r *wireRun) closedPhase(streams []*closedStream, count int, until time.Time) error {
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = r.closedConn(i, streams[i], count, until)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (r *wireRun) closedConn(i int, st *closedStream, count int, until time.Time) error {
	c := r.cl[i]
	timed := !until.IsZero()
	var last time.Time
	for k := 0; ; k++ {
		if (timed && !time.Now().Before(until)) || (!timed && k >= count) {
			return nil
		}
		q := st.next()
		var lease int64
		if q.Verb == vRelease {
			lease = r.leases[i][q.Seq]
			delete(r.leases[i], q.Seq)
			if lease == 0 {
				continue // its alloc was blocked or shed
			}
		}
		if timed {
			if !last.IsZero() {
				r.gaps[i] = append(r.gaps[i], us(time.Since(last)))
			}
			r.heldSamples[i] = append(r.heldSamples[i], float64(r.held.Load()))
		}
		o, err := exchange(c, q, lease, r.nodes)
		if err != nil {
			return err
		}
		last, o.timed = o.done, timed
		if q.Verb == vAlloc {
			r.leases[i][q.Seq] = o.lease
		}
		r.count(&o)
		r.outcomes[i] = append(r.outcomes[i], o)
	}
}

// teardown releases every lease still held, over the first
// connection, and returns the release latencies.
func (r *wireRun) teardown() (samples, error) {
	var lat samples
	for _, lease := range r.unreleased() {
		o, err := exchange(r.cl[0], request{Verb: vRelease}, lease, r.nodes)
		if err != nil {
			return nil, err
		}
		if o.kind != serve.ReplyOK {
			return nil, fmt.Errorf("teardown release %d answered %q", lease, o.reply)
		}
		lat = append(lat, o.latUs)
		r.count(&o)
		r.outcomes[0] = append(r.outcomes[0], o)
	}
	return lat, nil
}

// wirePreload runs the fixed preload over the first connection,
// keeping each held lease's alloc reply so the residual network can be
// rebuilt from the printed paths.
type wirePreload struct {
	r              *wireRun
	held           map[int64]outcome // lease -> the alloc that granted it
	allocUs, relUs samples
}

func (p *wirePreload) alloc(s, t int) (int64, bool, error) {
	o, err := exchange(p.r.cl[0], request{Verb: vAlloc, S: s, T: t}, 0, p.r.nodes)
	if err != nil {
		return 0, false, err
	}
	if !o.answered() {
		return 0, false, fmt.Errorf("preload alloc %d %d answered %q", s, t, o.reply)
	}
	p.allocUs = append(p.allocUs, o.latUs)
	p.r.count(&o)
	p.r.outcomes[0] = append(p.r.outcomes[0], o)
	if o.lease == 0 {
		return 0, false, nil
	}
	p.held[o.lease] = o
	return o.lease, true, nil
}

func (p *wirePreload) release(lease int64) error {
	o, err := exchange(p.r.cl[0], request{Verb: vRelease}, lease, p.r.nodes)
	if err != nil {
		return err
	}
	p.relUs = append(p.relUs, o.latUs)
	if o.kind != serve.ReplyOK || !strings.HasPrefix(o.reply, "released ") {
		return fmt.Errorf("preload release %d answered %q", lease, o.reply)
	}
	p.r.count(&o)
	p.r.outcomes[0] = append(p.r.outcomes[0], o)
	delete(p.held, lease)
	return nil
}

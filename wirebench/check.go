package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"lightpath/internal/cli"
	"lightpath/internal/core"
	"lightpath/internal/graph"
	"lightpath/internal/oracle"
	"lightpath/internal/serve"
	"lightpath/internal/wdm"
)

// buildInstance builds the network wdmserve builds from the same flags.
func buildInstance(instance []string) (*wdm.Network, error) {
	fs := flag.NewFlagSet("instance", flag.ContinueOnError)
	var nf cli.NetFlags
	nf.Register(fs)
	if err := fs.Parse(instance); err != nil {
		return nil, err
	}
	return nf.Build()
}

// costTolerance absorbs summation-order differences between solvers
// that find the same optimal cost along different tied paths.
const costTolerance = 1e-9

func sameCost(a, b float64) bool {
	return math.Abs(a-b) <= costTolerance*math.Max(1, math.Abs(b))
}

// probe is one preflight route pair with the oracle's answer on the
// base network (blocked: no semilightpath exists).
type probe struct {
	s, t    int
	cost    float64
	blocked bool
}

// probeCount is how many seeded route pairs the preflight sends.
const probeCount = 32

// newProbes draws the seeded pairs and solves them with the oracle,
// in parallel over the generator's threads.
func newProbes(nw *wdm.Network, seed int64) ([]probe, error) {
	rng := rand.New(rand.NewSource(seed*1000003 + 5))
	ps := make([]probe, probeCount)
	for i := range ps {
		ps[i].s, ps[i].t = pair(rng, nw.NumNodes())
	}
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ps); i += conns {
				cost, _, err := oracle.Solve(nw, ps[i].s, ps[i].t)
				switch {
				case errors.Is(err, oracle.ErrNoRoute):
					ps[i].blocked = true
				case err != nil:
					errs[w] = err
					return
				default:
					ps[i].cost = cost
				}
			}
		}(w)
	}
	wg.Wait()
	return ps, errors.Join(errs...)
}

// checkProbe compares one route reply with the oracle's answer.
func checkProbe(p probe, reply string) error {
	kind := serve.Classify(reply)
	if p.blocked {
		if kind != serve.ReplyBlocked {
			return fmt.Errorf("probe route %d %d: oracle finds no path, server answered %q", p.s, p.t, reply)
		}
		return nil
	}
	cost, ok := serve.ParseCost(reply)
	if kind != serve.ReplyOK || !ok {
		return fmt.Errorf("probe route %d %d: oracle cost %g, server answered %q", p.s, p.t, p.cost, reply)
	}
	if !sameCost(cost, p.cost) {
		return fmt.Errorf("probe route %d %d: server cost %g, oracle cost %g", p.s, p.t, cost, p.cost)
	}
	return nil
}

// runProbes sends every probe over c and checks each reply.
func runProbes(c *serve.Client, ps []probe) error {
	for _, p := range ps {
		reply, err := c.Do(fmt.Sprintf("route %d %d", p.s, p.t))
		if err != nil {
			return fmt.Errorf("probe route %d %d: %w", p.s, p.t, err)
		}
		if err := checkProbe(p, reply); err != nil {
			return err
		}
	}
	return nil
}

// pathDecoder maps the printed "s -[λi]-> v ..." form of a path back to
// link IDs of the base network.
type pathDecoder struct {
	base  *wdm.Network
	links map[[2]int][]int // (from, to) -> link IDs
}

func newPathDecoder(base *wdm.Network) *pathDecoder {
	d := &pathDecoder{base: base, links: map[[2]int][]int{}}
	for _, l := range base.Links() {
		k := [2]int{l.From, l.To}
		d.links[k] = append(d.links[k], l.ID)
	}
	return d
}

// decode parses the path after the cost in a route or alloc reply.
func (d *pathDecoder) decode(path string) (*wdm.Semilightpath, error) {
	f := strings.Fields(path)
	if len(f) < 3 || len(f)%2 == 0 {
		return nil, fmt.Errorf("malformed path %q", path)
	}
	prev, err := strconv.Atoi(f[0])
	if err != nil {
		return nil, fmt.Errorf("malformed path %q", path)
	}
	p := &wdm.Semilightpath{}
	for i := 1; i < len(f); i += 2 {
		lam, err1 := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(f[i], "-[λ"), "]->"))
		next, err2 := strconv.Atoi(f[i+1])
		if err1 != nil || err2 != nil || lam < 1 {
			return nil, fmt.Errorf("malformed path %q", path)
		}
		w := wdm.Wavelength(lam - 1)
		link := -1
		for _, id := range d.links[[2]int{prev, next}] {
			if _, ok := d.base.Link(id).Has(w); ok {
				if link >= 0 {
					return nil, fmt.Errorf("path %q: parallel links %d->%d both carry λ%d", path, prev, next, lam)
				}
				link = id
			}
		}
		if link < 0 {
			return nil, fmt.Errorf("path %q: no link %d->%d carries λ%d", path, prev, next, lam)
		}
		p.Hops = append(p.Hops, wdm.Hop{Link: link, Wavelength: w})
		prev = next
	}
	return p, nil
}

// checkPathReply validates a served route or alloc answer for s->t
// against network nw: the printed path must exist in nw (so a residual
// network rejects a path over a held channel) and cost what the reply
// claims. It returns the decoded path and cost.
func (d *pathDecoder) checkPathReply(nw *wdm.Network, s, t int, reply string) (*wdm.Semilightpath, float64, error) {
	i := strings.Index(reply, "cost ")
	if i < 0 {
		return nil, 0, fmt.Errorf("%d->%d: no cost in reply %q", s, t, reply)
	}
	f := strings.SplitN(strings.TrimSpace(reply[i+len("cost "):]), "  ", 2)
	if len(f) != 2 {
		return nil, 0, fmt.Errorf("%d->%d: no path in reply %q", s, t, reply)
	}
	cost, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return nil, 0, fmt.Errorf("%d->%d: bad cost in reply %q", s, t, reply)
	}
	p, err := d.decode(f[1])
	if err != nil {
		return nil, 0, err
	}
	if err := p.Validate(nw, s, t); err != nil {
		return nil, 0, fmt.Errorf("%d->%d: reply %q: %w", s, t, reply, err)
	}
	if c := p.Cost(nw); !sameCost(c, cost) {
		return nil, 0, fmt.Errorf("%d->%d: reply claims cost %g, its path costs %g", s, t, cost, c)
	}
	return p, cost, nil
}

// residual returns base minus the channels the given paths hold.
func residual(base *wdm.Network, held []*wdm.Semilightpath) (*wdm.Network, error) {
	taken := map[wdm.Hop]bool{}
	for _, p := range held {
		for _, h := range p.Hops {
			if taken[h] {
				return nil, fmt.Errorf("channel λ%d on link %d granted to two held leases", h.Wavelength+1, h.Link)
			}
			taken[h] = true
		}
	}
	res := wdm.NewNetwork(base.NumNodes(), base.K())
	for _, l := range base.Links() {
		var free []wdm.Channel
		for _, c := range l.Channels {
			if !taken[wdm.Hop{Link: l.ID, Wavelength: c.Lambda}] {
				free = append(free, c)
			}
		}
		if _, err := res.AddLink(l.From, l.To, free); err != nil {
			return nil, err
		}
	}
	res.SetConverter(base.Converter())
	return res, nil
}

// answerChecker checks served answers against core's shortest-path
// trees on a network. With exact set the network is the residual every
// answer was served on, so costs must match and blocked answers must be
// unreachable. Otherwise it is the base network, which only bounds an
// answer served on some residual: the path must exist and cost no less
// than the base optimum.
type answerChecker struct {
	dec   *pathDecoder
	nw    *wdm.Network
	exact bool
	aux   *core.Aux
	trees map[int]*core.SourceTree
}

func newAnswerChecker(dec *pathDecoder, nw *wdm.Network, exact bool) (*answerChecker, error) {
	aux, err := core.NewAux(nw)
	if err != nil {
		return nil, err
	}
	return &answerChecker{dec: dec, nw: nw, exact: exact, aux: aux, trees: map[int]*core.SourceTree{}}, nil
}

func (ac *answerChecker) tree(s int) (*core.SourceTree, error) {
	if t, ok := ac.trees[s]; ok {
		return t, nil
	}
	t, err := ac.aux.RouteFrom(s, &core.Options{Queue: graph.QueueBinary})
	if err != nil {
		return nil, err
	}
	ac.trees[s] = t
	return t, nil
}

// checkPath checks a route or alloc answer for s->t and returns the
// path it printed, nil for a blocked answer.
func (ac *answerChecker) checkPath(s, t int, reply string) (*wdm.Semilightpath, error) {
	tr, err := ac.tree(s)
	if err != nil {
		return nil, err
	}
	blocked := serve.Classify(reply) == serve.ReplyBlocked
	switch {
	case !tr.Reachable(t) && !blocked:
		return nil, fmt.Errorf("%d->%d: no path exists, server answered %q", s, t, reply)
	case blocked && ac.exact && tr.Reachable(t):
		return nil, fmt.Errorf("%d->%d: answered blocked, optimum is %g", s, t, tr.Dist(t))
	case blocked:
		return nil, nil
	}
	// A valid path costing what the reply claims cannot beat the optimum,
	// so only the exact check compares with the tree.
	p, cost, err := ac.dec.checkPathReply(ac.nw, s, t, reply)
	if err != nil {
		return nil, err
	}
	if ac.exact && !sameCost(cost, tr.Dist(t)) {
		return nil, fmt.Errorf("%d->%d: server cost %g, optimum %g", s, t, cost, tr.Dist(t))
	}
	return p, nil
}

// checkRouteFrom checks a routefrom answer line by line.
func (ac *answerChecker) checkRouteFrom(s int, lines []string) error {
	tr, err := ac.tree(s)
	if err != nil {
		return err
	}
	if len(lines) != ac.nw.NumNodes() {
		return fmt.Errorf("routefrom %d: %d lines, want %d", s, len(lines), ac.nw.NumNodes())
	}
	for t, l := range lines {
		prefix := fmt.Sprintf("  %d -> %d: ", s, t)
		rest, ok := strings.CutPrefix(l, prefix)
		if !ok {
			return fmt.Errorf("routefrom %d: line %q, want prefix %q", s, l, prefix)
		}
		if rest == "unreachable" {
			if ac.exact && tr.Reachable(t) {
				return fmt.Errorf("routefrom %d: %d answered unreachable, optimum is %g", s, t, tr.Dist(t))
			}
			continue
		}
		cost, ok := serve.ParseCost(rest)
		switch {
		case !ok || !tr.Reachable(t):
			return fmt.Errorf("routefrom %d: %d answered %q, reachable %v", s, t, rest, tr.Reachable(t))
		case ac.exact && !sameCost(cost, tr.Dist(t)):
			return fmt.Errorf("routefrom %d: %d answered cost %g, optimum %g", s, t, cost, tr.Dist(t))
		case cost < tr.Dist(t) && !sameCost(cost, tr.Dist(t)):
			return fmt.Errorf("routefrom %d: %d answered cost %g below the base optimum %g", s, t, cost, tr.Dist(t))
		}
	}
	return nil
}

// checkOracle re-checks one route answer with the independent oracle.
func (ac *answerChecker) checkOracle(s, t int, reply string) error {
	cost, _, err := oracle.Solve(ac.nw, s, t)
	if errors.Is(err, oracle.ErrNoRoute) {
		if serve.Classify(reply) != serve.ReplyBlocked {
			return fmt.Errorf("route %d %d: oracle finds no residual path, server answered %q", s, t, reply)
		}
		return nil
	}
	if err != nil {
		return err
	}
	got, ok := serve.ParseCost(reply)
	if !ok || !sameCost(got, cost) {
		return fmt.Errorf("route %d %d: server answered %q, oracle cost %g", s, t, reply, cost)
	}
	return nil
}

// pathAnswer is a route or alloc answer with the path it printed.
type pathAnswer struct {
	o    *outcome
	path *wdm.Semilightpath
}

// holdWindow is when a lease surely holds its channels: from the arrival
// of its grant reply, by which the server had claimed them, until its
// release was sent, before which the server cannot have freed them.
type holdWindow struct {
	lease    int64
	from, to time.Time
}

// checkHeldChannels fails when two leases surely hold one channel at the
// same time, or when a route or alloc answer that was sent and answered
// inside a lease's window routes over one of its channels. answers are
// every route and alloc answer that printed a path; released maps each
// lease to when its release was sent. Client-side times bound the
// server's order across connections, so no answer served on a correct
// residual network can fail.
func checkHeldChannels(answers []pathAnswer, released map[int64]time.Time) error {
	windows := map[wdm.Hop][]holdWindow{}
	for _, a := range answers {
		if a.o.req.Verb != vAlloc || a.o.lease == 0 {
			continue
		}
		w := holdWindow{lease: a.o.lease, from: a.o.done, to: released[a.o.lease]}
		if w.to.IsZero() {
			return fmt.Errorf("lease %d was never released", w.lease)
		}
		for _, h := range a.path.Hops {
			windows[h] = append(windows[h], w)
		}
	}
	for h, ws := range windows {
		sort.Slice(ws, func(i, j int) bool { return ws[i].from.Before(ws[j].from) })
		last := 0 // the window seen so far that ends last
		for i := 1; i < len(ws); i++ {
			if ws[i].from.Before(ws[last].to) {
				return fmt.Errorf("leases %d and %d both held channel λ%d on link %d",
					ws[last].lease, ws[i].lease, h.Wavelength+1, h.Link)
			}
			if ws[i].to.After(ws[last].to) {
				last = i
			}
		}
	}
	// A channel's windows are now disjoint, so only the last one opened
	// by the time an answer was sent can contain the whole exchange.
	for _, a := range answers {
		for _, h := range a.path.Hops {
			ws := windows[h]
			k := sort.Search(len(ws), func(i int) bool { return ws[i].from.After(a.o.sent) }) - 1
			if k >= 0 && ws[k].lease != a.o.lease && !a.o.done.After(ws[k].to) {
				return fmt.Errorf("%s %d %d answered %q over channel λ%d on link %d, held by lease %d",
					a.o.req.Verb, a.o.req.S, a.o.req.T, a.o.reply, h.Wavelength+1, h.Link, ws[k].lease)
			}
		}
	}
	return nil
}

// checkDrained fails unless the server holds nothing after every lease
// was released, and its counters agree with what the client saw.
func checkDrained(st serverStats, granted, released int64) error {
	if st.held != 0 || st.owners != 0 {
		return fmt.Errorf("after releasing every lease the server still reports held %d owners %d", st.held, st.owners)
	}
	if st.allocs != granted || st.releases != released {
		return fmt.Errorf("server counted %d allocs / %d releases, client saw %d / %d",
			st.allocs, st.releases, granted, released)
	}
	return nil
}

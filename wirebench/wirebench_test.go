package main

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"lightpath/internal/core"
	"lightpath/internal/graph"
	"lightpath/internal/wdm"
)

// streamPrefix draws the first n requests of every connection's stream.
func streamPrefix(w *workload, nodes int, seed int64, n int) []request {
	var out []request
	for c := 0; c < conns; c++ {
		st := newClosedStream(w, nodes, seed, c)
		for i := 0; i < n; i++ {
			out = append(out, st.next())
		}
	}
	return out
}

func TestSeedFixesRequestStream(t *testing.T) {
	const nodes = 300
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := streamPrefix(w, nodes, 1, 5000)
			b := streamPrefix(w, nodes, 1, 5000)
			c := streamPrefix(w, nodes, 2, 5000)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("the same seed gave different request streams")
			}
			if reflect.DeepEqual(a, c) {
				t.Fatal("different seeds gave the same request stream")
			}
		})
	}
}

// A closed stream releases each lease after its holding time, so the
// allocs outstanding stay near mix·holdReqs instead of drifting.
func TestClosedStreamHoldsStationaryLoad(t *testing.T) {
	w, err := findWorkload("nsfnet-mixed")
	if err != nil {
		t.Fatal(err)
	}
	st := newClosedStream(w, 14, 1, 0)
	live := map[int]bool{}
	var sum, n float64
	for i := 0; i < 200000; i++ {
		q := st.next()
		switch q.Verb {
		case vAlloc:
			live[q.Seq] = true
		case vRelease:
			if !live[q.Seq] {
				t.Fatalf("release of Seq %d that is not held", q.Seq)
			}
			delete(live, q.Seq)
		}
		if i >= 20000 {
			sum += float64(len(live))
			n++
		}
	}
	want := w.mix[2] / (w.mix[0] + w.mix[1] + w.mix[2]) * w.holdReqs
	if got := sum / n; got < 0.8*want || got > 1.2*want {
		t.Fatalf("mean held %.1f, want about %.1f", got, want)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	series := func(n int) samples {
		s := make(samples, n)
		for i := range s {
			s[i] = float64(n - i)
		}
		return s
	}
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{19, 0.5, false}, {20, 0.5, true}, {999, 0.99, false}, {1000, 0.99, true}, {0, 0.5, false},
	} {
		v, err := series(tc.n).percentile(tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("p%g of %d samples: err %v, want ok=%v", tc.p*100, tc.n, err, tc.ok)
		}
		if err == nil && v != float64(int(tc.p*float64(tc.n)+0.5)) {
			t.Errorf("p%g of 1..%d = %g", tc.p*100, tc.n, v)
		}
	}
}

// served renders a core answer the way wdmserve prints it.
func served(t *testing.T, nw *wdm.Network, s, d int) (string, *core.Result) {
	t.Helper()
	aux, err := core.NewAux(nw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := aux.Route(s, d, &core.Options{Queue: graph.QueueBinary})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("cost %g  %s", res.Cost, res.Path.String(nw)), res
}

func nsfnet(t *testing.T) *wdm.Network {
	t.Helper()
	w, err := findWorkload("nsfnet-mixed")
	if err != nil {
		t.Fatal(err)
	}
	nw, err := buildInstance(w.instance)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestCheckerRejectsCorruptedCost(t *testing.T) {
	nw := nsfnet(t)
	dec := newPathDecoder(nw)
	reply, res := served(t, nw, 0, 13)
	for _, exact := range []bool{true, false} {
		ac, err := newAnswerChecker(dec, nw, exact)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ac.checkPath(0, 13, reply); err != nil {
			t.Fatalf("exact=%v: correct answer rejected: %v", exact, err)
		}
		low := strings.Replace(reply, fmt.Sprintf("cost %g", res.Cost), fmt.Sprintf("cost %g", res.Cost*0.99), 1)
		if _, err := ac.checkPath(0, 13, low); err == nil {
			t.Errorf("exact=%v: cost below the path's own cost accepted", exact)
		}
	}
	// The oracle catches a wrong optimum too.
	ac, err := newAnswerChecker(dec, nw, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := ac.checkOracle(0, 13, fmt.Sprintf("cost %g  x", res.Cost+1)); err == nil {
		t.Error("oracle check accepted a wrong cost")
	}
	if err := checkProbe(probe{s: 0, t: 13, cost: res.Cost + 1e-6}, reply); err == nil {
		t.Error("probe check accepted a cost off the oracle's")
	}
}

func TestCheckerRejectsLeakedChannel(t *testing.T) {
	nw := nsfnet(t)
	dec := newPathDecoder(nw)
	reply, res := served(t, nw, 0, 13)
	// With that path's channels held, an answer that reuses them routes
	// over a channel the residual network no longer has.
	held, err := residual(nw, []*wdm.Semilightpath{res.Path})
	if err != nil {
		t.Fatal(err)
	}
	ac, err := newAnswerChecker(dec, held, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ac.checkPath(0, 13, reply); !errors.Is(err, wdm.ErrUnavailable) {
		t.Errorf("answer over a held channel: err %v, want %v", err, wdm.ErrUnavailable)
	}
	if _, err := residual(nw, []*wdm.Semilightpath{res.Path, res.Path}); err == nil {
		t.Error("one channel granted to two leases accepted")
	}
	// After the teardown nothing may stay held.
	if err := checkDrained(serverStats{allocs: 5, releases: 5, held: 3, owners: 1}, 5, 5); err == nil {
		t.Error("leaked channels after the teardown accepted")
	}
	if err := checkDrained(serverStats{allocs: 5, releases: 5}, 5, 5); err != nil {
		t.Errorf("clean teardown rejected: %v", err)
	}
	if err := checkDrained(serverStats{allocs: 6, releases: 5}, 5, 5); err == nil {
		t.Error("an alloc the client never saw accepted")
	}
}

// A lease's channels are surely held from its grant reply until its
// release is sent: an answer served wholly inside that window must not
// use them, and no two such windows on one channel may overlap.
func TestCheckerRejectsHeldChannelReuse(t *testing.T) {
	nw := nsfnet(t)
	reply, res := served(t, nw, 0, 13)
	t0 := time.Now()
	ms := func(n float64) time.Time { return t0.Add(time.Duration(n * float64(time.Millisecond))) }
	answer := func(v verb, lease int64, sent, done float64) pathAnswer {
		return pathAnswer{&outcome{req: request{Verb: v, S: 0, T: 13}, reply: reply, lease: lease,
			sent: ms(sent), done: ms(done)}, res.Path}
	}
	grant := answer(vAlloc, 1, 0, 1) // lease 1 surely holds the path over [1ms, 10ms]
	released := map[int64]time.Time{1: ms(10), 2: ms(20)}
	for _, tc := range []struct {
		name  string
		other pathAnswer
		ok    bool
	}{
		{"route inside the window", answer(vRoute, 0, 2, 3), false},
		{"route sent before the grant arrived", answer(vRoute, 0, 0.5, 2), true},
		{"route answered after the release was sent", answer(vRoute, 0, 5, 11), true},
		{"alloc inside the window", answer(vAlloc, 2, 2, 3), false},
		{"alloc whose window overlaps", answer(vAlloc, 2, 0.2, 0.5), false},
		{"alloc after the release", answer(vAlloc, 2, 11, 12), true},
	} {
		err := checkHeldChannels([]pathAnswer{grant, tc.other}, released)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	if err := checkHeldChannels([]pathAnswer{grant}, map[int64]time.Time{}); err == nil {
		t.Error("a lease never released accepted")
	}
}

func TestParseStats(t *testing.T) {
	st, err := parseStats([]string{
		"epoch 12  allocs 7  releases 5  conflicts 1  owners 2  held 9  util 0.010",
		"cache: 3/64 entries  lookups 40  hits 31  misses 9  evictions 0  hit rate 0.775",
		"routes 100 (blocked 2, traced 0)  retries 1  rebuilds 13",
		"route latency: p50 10µs  p95 20µs  p99 30µs  (n=100, max 40µs)",
		"uptime 1s  health ok",
	})
	want := serverStats{allocs: 7, releases: 5, conflicts: 1, owners: 2, held: 9, lookups: 40, hits: 31}
	if err != nil || st != want {
		t.Fatalf("parseStats = %+v, %v; want %+v", st, err, want)
	}
}

// BENCHMARK.json declares exactly the benchmark's workloads, in order.
func TestBenchmarkJSONMatchesBenchmark(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %s, want %s", i, w.Name, workloads[i].name)
		}
	}
}

package serve

import (
	"errors"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"lightpath/internal/core"
	"lightpath/internal/obs"
)

// elapsedRE matches the elapsed fields of explain headers and trace
// summaries — the only reply bytes that vary between identical runs.
var elapsedRE = regexp.MustCompile(`(cache (hit|miss)), [^)]*\)|in [^ ]+\n`)

func maskElapsed(reply string) string {
	return elapsedRE.ReplaceAllStringFunc(reply, func(m string) string {
		if strings.HasPrefix(m, "in ") {
			return "in X\n"
		}
		return m[:strings.Index(m, ",")] + ", X)"
	})
}

// execReply runs one command on sess and returns what it wrote.
func execReply(t *testing.T, sess *Session, sb *strings.Builder, line string) string {
	t.Helper()
	sb.Reset()
	if _, err := sess.Exec(line); err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	return sb.String()
}

// TestExplainIgnoresRecorderState: explain renders from a private span
// tree, so its full reply is the same whether the flight recorder
// records the request, is off (-recorder=false), absent, or head-samples
// the request out (-trace-sample 2).
func TestExplainIgnoresRecorderState(t *testing.T) {
	reply := func(tracer *obs.Tracer, reps int) []string {
		var sb strings.Builder
		sess := NewSession(newEngine(t, "-topo", "nsfnet", "-k", "6", "-seed", "3"), &sb, &SessionOptions{
			Tracer: tracer,
		})
		out := make([]string, reps)
		for i := range out {
			out[i] = maskElapsed(execReply(t, sess, &sb, "explain 0 9"))
		}
		return out
	}
	want := reply(obs.NewTracer(nil), 1)[0]
	for _, line := range []string{"explain 0 -> 9 (epoch 0, cache miss, X)", "  hop 3: ", "  totals: links ",
		"  search: aux 156 nodes / 580 arcs, settled 153, relaxed 213, conversions 2/10 taken/available"} {
		if !strings.Contains(want, line) {
			t.Fatalf("reference explain reply lacks %q:\n%s", line, want)
		}
	}
	cases := map[string]struct {
		tracer *obs.Tracer
		reps   int
	}{
		"recorder off":   {obs.NewTracer(&obs.TracerOptions{Disabled: true}), 1},
		"no recorder":    {nil, 1},
		"trace-sample 2": {obs.NewTracer(&obs.TracerOptions{Sample: 2}), 2}, // one sampled out, one in
	}
	for name, tc := range cases {
		for i, got := range reply(tc.tracer, tc.reps) {
			if got != want {
				t.Errorf("%s, explain #%d:\n%s\nwant:\n%s", name, i+1, got, want)
			}
		}
	}
}

// TestExplainTrivialPath: explain s s has no core_search span to read
// (the trivial path never searches); the reply is the header and the
// trivial-path line, with the query counted as traced.
func TestExplainTrivialPath(t *testing.T) {
	eng := newEngine(t, "-topo", "nsfnet", "-k", "6", "-seed", "3")
	var sb strings.Builder
	sess := NewSession(eng, &sb, nil)
	got := maskElapsed(execReply(t, sess, &sb, "explain 4 4"))
	if want := "explain 4 -> 4 (epoch 0, cache miss, X)\n  trivial path (source == destination)\n"; got != want {
		t.Fatalf("explain 4 4 = %q, want %q", got, want)
	}
	if n := eng.Metrics().Snapshot()["engine_traced_routes_total"].(uint64); n != 1 {
		t.Fatalf("engine_traced_routes_total = %d, want 1", n)
	}
}

// explainLine pulls the numbers out of explain reply lines.
var (
	explainHeadRE = regexp.MustCompile(`^explain (\d+) -> (\d+) \(epoch (\d+), cache (hit|miss), `)
	explainHopRE  = regexp.MustCompile(`^  hop \d+: \d+ -\[λ\d+\]-> \d+  conv (\S+) \+ link (\S+)  \(cum (\S+)\)$`)
	explainCostRE = regexp.MustCompile(`^  cost (\S+)  `)
	explainConvRE = regexp.MustCompile(`conversions (\d+)/(\d+) taken/available$`)
)

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad number %q: %v", s, err)
	}
	return v
}

// TestExplainBreakdownAllPairs is the explain-correctness contract on
// the wire, over every NSFNET pair: the per-hop conversion plus link
// costs sum to the reported cost, the hop count is the path length, the
// conversions taken are the path's and never exceed those available,
// the pinned epoch is the engine's, blocked queries say so, and the
// cache peek leaves the lookup count alone.
func TestExplainBreakdownAllPairs(t *testing.T) {
	eng := newEngine(t, "-topo", "nsfnet", "-k", "6", "-seed", "3")
	// Hold 0->9 paths until the pair blocks, so some pairs explain as
	// blocked and the epoch has moved past 0.
	for {
		_, err := eng.RouteAndAllocate(eng.ReserveOwner(), 0, 9)
		if errors.Is(err, core.ErrNoRoute) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.RouteFrom(2); err != nil { // one resident tree
		t.Fatal(err)
	}
	var sb strings.Builder
	sess := NewSession(eng, &sb, nil)
	lookups := eng.CacheStats().Lookups
	n := eng.Base().NumNodes()
	routed, blocked, hits := 0, 0, 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			line := "explain " + strconv.Itoa(s) + " " + strconv.Itoa(d)
			sb.Reset()
			_, err := sess.Exec(line)
			out := sb.String()
			want, werr := eng.Snapshot().Route(s, d)
			if errors.Is(werr, core.ErrNoRoute) {
				if !errors.Is(err, core.ErrNoRoute) || !strings.Contains(out, ": blocked after settling ") {
					t.Fatalf("%s: blocked query answered %q (err %v)", line, out, err)
				}
				blocked++
				continue
			}
			if err != nil || werr != nil {
				t.Fatalf("%s: %v / %v", line, err, werr)
			}
			lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
			head := explainHeadRE.FindStringSubmatch(lines[0])
			if head == nil || head[3] != strconv.FormatUint(eng.Epoch(), 10) {
				t.Fatalf("%s: header %q, want epoch %d", line, lines[0], eng.Epoch())
			}
			if head[4] == "hit" {
				hits++
			}
			sum, hops, cum := 0.0, 0, 0.0
			for _, l := range lines[1:] {
				if m := explainHopRE.FindStringSubmatch(l); m != nil {
					sum += parseFloat(t, m[1]) + parseFloat(t, m[2])
					cum = parseFloat(t, m[3])
					hops++
				}
			}
			cm := explainCostRE.FindStringSubmatch(lines[len(lines)-2])
			if cm == nil {
				t.Fatalf("%s: no cost line in\n%s", line, out)
			}
			cost := parseFloat(t, cm[1])
			if cost != want.Cost || math.Abs(sum-cost) > 1e-9 || math.Abs(cum-cost) > 1e-9 {
				t.Fatalf("%s: hops sum %v, last cum %v, cost %v, route cost %v", line, sum, cum, cost, want.Cost)
			}
			if hops != want.Path.Len() {
				t.Fatalf("%s: %d hop lines, path has %d hops", line, hops, want.Path.Len())
			}
			conv := explainConvRE.FindStringSubmatch(lines[len(lines)-1])
			if conv == nil {
				t.Fatalf("%s: no search line in\n%s", line, out)
			}
			taken, avail := conv[1], conv[2]
			if taken != strconv.Itoa(len(want.Path.Conversions(eng.Base()))) {
				t.Fatalf("%s: %s conversions taken, path has %d", line, taken, len(want.Path.Conversions(eng.Base())))
			}
			if ta, av := parseFloat(t, taken), parseFloat(t, avail); ta > av {
				t.Fatalf("%s: %s conversions taken but only %s available", line, taken, avail)
			}
			routed++
		}
	}
	if routed == 0 || blocked == 0 || hits == 0 {
		t.Fatalf("routed %d, blocked %d, cache hits %d: want each > 0", routed, blocked, hits)
	}
	if got := eng.CacheStats().Lookups; got != lookups {
		t.Fatalf("explain changed the cache lookup count: %d -> %d", lookups, got)
	}
}

// TestTraceOnAllocSummary: a clean first allocation under trace on
// reports one attempt (no attempts field), the epoch it was routed at,
// no retry, and one traced route.
func TestTraceOnAllocSummary(t *testing.T) {
	eng := newEngine(t, "-topo", "nsfnet", "-k", "6", "-seed", "3")
	var sb strings.Builder
	sess := NewSession(eng, &sb, nil)
	execReply(t, sess, &sb, "trace on")
	out := maskElapsed(execReply(t, sess, &sb, "alloc 0 13"))
	want := "lease 1 (epoch 1): cost 7.908246796474613  0 -[λ6]-> 7 -[λ2]-> 6 -[λ5]-> 13\n" +
		"  trace 0->13 epoch 0 cost 7.908246796474613 (3 hops, 2/10 conversions) aux 156n/582a settled 141 relaxed 213 cache-miss in X\n"
	if out != want {
		t.Fatalf("traced alloc =\n%s\nwant\n%s", out, want)
	}
	snap := eng.Metrics().Snapshot()
	if snap["engine_alloc_retries_total"].(uint64) != 0 || snap["engine_traced_routes_total"].(uint64) != 1 {
		t.Fatalf("retries %v, traced %v: want 0 and 1", snap["engine_alloc_retries_total"], snap["engine_traced_routes_total"])
	}
}

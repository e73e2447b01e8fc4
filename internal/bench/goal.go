package bench

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"lightpath/internal/core"
	"lightpath/internal/graph"
	"lightpath/internal/topo"
	"lightpath/internal/workload"
)

// GoalTierResult is one topology tier of the goal-directed search
// benchmark: the same request stream is answered by plain goal-set
// Dijkstra, bidirectional Dijkstra and ALT (landmark A*), all on the
// same compiled auxiliary graph. Costs are asserted identical during
// collection; what the tiers record is how much less of the graph the
// directed kernels settle and what that buys in wall-clock.
type GoalTierResult struct {
	Tier     string `json:"tier"`
	Nodes    int    `json:"nodes"`
	Links    int    `json:"links"`
	K        int    `json:"k"`
	AuxNodes int    `json:"aux_nodes"`
	AuxArcs  int    `json:"aux_arcs"`
	Requests int    `json:"requests"`
	Served   int    `json:"served"`

	PlainNsPerOp int64 `json:"plain_ns_per_op"`
	BidiNsPerOp  int64 `json:"bidi_ns_per_op"`
	AltNsPerOp   int64 `json:"alt_ns_per_op"`

	PlainSettledMean float64 `json:"plain_settled_mean"`
	BidiSettledMean  float64 `json:"bidi_settled_mean"`
	AltSettledMean   float64 `json:"alt_settled_mean"`

	// Settled-node reduction factors (plain / mode): the tentpole's
	// acceptance gate wants ≥2 on the largest tier.
	BidiSettledReduction float64 `json:"bidi_settled_reduction"`
	AltSettledReduction  float64 `json:"alt_settled_reduction"`

	// Wall-clock speedups (plain ns / mode ns).
	BidiSpeedup float64 `json:"bidi_speedup"`
	AltSpeedup  float64 `json:"alt_speedup"`
}

// GoalBenchResult is the machine-readable record of the goal-directed
// search benchmark (written to BENCH_goal.json by `wdmbench -record
// goal`).
type GoalBenchResult struct {
	Tiers       []GoalTierResult `json:"tiers"`
	GeneratedAt string           `json:"generated_at"`
}

// goalTierSpec names one benchmark topology tier.
type goalTierSpec struct {
	name  string
	build func(rng *rand.Rand) *topo.Topology
}

// GoalReport measures the goal-directed kernels across three topology
// tiers — NSFNET (small), random sparse n=100 (medium), random sparse
// n=300 (large) — and returns the machine-readable result. Every query's
// cost is cross-checked across modes during collection, so a run that
// completes is also a correctness witness.
func GoalReport(cfg Config) (*GoalBenchResult, error) {
	tiers := []goalTierSpec{
		{"nsfnet-small", func(*rand.Rand) *topo.Topology { return topo.NSFNET() }},
		{"sparse-medium-n100", func(rng *rand.Rand) *topo.Topology { return topo.RandomSparse(100, 4, 5, rng) }},
		{"sparse-large-n300", func(rng *rand.Rand) *topo.Topology { return topo.RandomSparse(300, 4, 5, rng) }},
	}
	out := &GoalBenchResult{GeneratedAt: time.Now().UTC().Format(time.RFC3339)}
	for _, tier := range tiers {
		r, err := goalTier(cfg, tier)
		if err != nil {
			return nil, fmt.Errorf("bench: goal tier %s: %w", tier.name, err)
		}
		out.Tiers = append(out.Tiers, *r)
	}
	return out, nil
}

func goalTier(cfg Config, tier goalTierSpec) (*GoalTierResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 53))
	nw, err := workload.Build(tier.build(rng), workload.Spec{
		K:         8,
		AvailProb: 0.6,
		Conv:      workload.ConvUniform,
		ConvCost:  0.3,
	}, rng)
	if err != nil {
		return nil, err
	}
	a, err := core.NewAux(nw)
	if err != nil {
		return nil, err
	}
	lms, err := core.ComputeLandmarks(a, core.DefaultLandmarkCount)
	if err != nil {
		return nil, err
	}
	// Plain runs on the binary heap too, so the timing delta isolates the
	// search strategy rather than the priority structure.
	plain := &core.Options{Directed: core.DirectedPlain, Queue: graph.QueueBinary}
	bidi := &core.Options{Directed: core.DirectedBidi}
	alt := &core.Options{Directed: core.DirectedALT, Potential: lms}

	n := nw.NumNodes()
	requests := cfg.scaled(500)
	pairs := make([][2]int, requests)
	for i := range pairs {
		s, d := rng.Intn(n), rng.Intn(n)
		for d == s {
			d = rng.Intn(n)
		}
		pairs[i] = [2]int{s, d}
	}

	// Collection pass: settled-node counts plus the cost differential.
	// Every mode must agree on blocked/served and on cost — a benchmark
	// that measured a wrong answer would be worse than no benchmark.
	res := &GoalTierResult{
		Tier:     tier.name,
		Nodes:    n,
		Links:    nw.NumLinks(),
		K:        nw.K(),
		AuxNodes: a.NumAuxNodes(),
		AuxArcs:  a.NumAuxArcs(),
		Requests: requests,
	}
	var settledPlain, settledBidi, settledAlt int64
	for _, p := range pairs {
		rp, errP := a.Route(p[0], p[1], plain)
		rb, errB := a.Route(p[0], p[1], bidi)
		ra, errA := a.Route(p[0], p[1], alt)
		if (errP == nil) != (errB == nil) || (errP == nil) != (errA == nil) {
			return nil, fmt.Errorf("outcome disagreement %d->%d: plain=%v bidi=%v alt=%v",
				p[0], p[1], errP, errB, errA)
		}
		if errP != nil {
			if errors.Is(errP, core.ErrNoRoute) {
				continue
			}
			return nil, errP
		}
		if math.Abs(rp.Cost-rb.Cost) > 1e-7 || math.Abs(rp.Cost-ra.Cost) > 1e-7 {
			return nil, fmt.Errorf("cost disagreement %d->%d: plain=%v bidi=%v alt=%v",
				p[0], p[1], rp.Cost, rb.Cost, ra.Cost)
		}
		res.Served++
		settledPlain += int64(rp.Stats.Settled)
		settledBidi += int64(rb.Stats.Settled)
		settledAlt += int64(ra.Stats.Settled)
	}
	if res.Served == 0 {
		return nil, errors.New("no pair was routable")
	}
	res.PlainSettledMean = float64(settledPlain) / float64(res.Served)
	res.BidiSettledMean = float64(settledBidi) / float64(res.Served)
	res.AltSettledMean = float64(settledAlt) / float64(res.Served)
	if res.BidiSettledMean > 0 {
		res.BidiSettledReduction = res.PlainSettledMean / res.BidiSettledMean
	}
	if res.AltSettledMean > 0 {
		res.AltSettledReduction = res.PlainSettledMean / res.AltSettledMean
	}

	// Timing passes: identical request stream per mode, best repetition.
	timeMode := func(opts *core.Options) arm {
		return arm{run: func() error {
			for _, p := range pairs {
				if _, err := a.Route(p[0], p[1], opts); err != nil && !errors.Is(err, core.ErrNoRoute) {
					return err
				}
			}
			return nil
		}}
	}
	best, err := bestOf(cfg.reps(), timeMode(plain), timeMode(bidi), timeMode(alt))
	if err != nil {
		return nil, err
	}
	perOp := func(d time.Duration) int64 { return d.Nanoseconds() / int64(requests) }
	res.PlainNsPerOp, res.BidiNsPerOp, res.AltNsPerOp = perOp(best[0]), perOp(best[1]), perOp(best[2])
	if res.BidiNsPerOp > 0 {
		res.BidiSpeedup = float64(res.PlainNsPerOp) / float64(res.BidiNsPerOp)
	}
	if res.AltNsPerOp > 0 {
		res.AltSpeedup = float64(res.PlainNsPerOp) / float64(res.AltNsPerOp)
	}
	return res, nil
}

// Goal-record bounds, checked on the largest tier. The bidirectional
// search must settle at most half the nodes the plain search pops to
// prove the same optimum, and answer at least 4× faster: the wall-clock
// claim behind making it the served default (wdmserve -directed). The
// ALT figures are recorded, not gated — landmark quality varies with
// topology.
const (
	goalMinReduction   = 2
	goalMinBidiSpeedup = 4
)

// Gate checks bidi_settled_reduction and bidi_speedup on the tier with
// the most nodes, wherever it sits in the record.
func (r *GoalBenchResult) Gate() error {
	if len(r.Tiers) == 0 {
		return errors.New("no tiers recorded")
	}
	largest := r.Tiers[0]
	for _, t := range r.Tiers[1:] {
		if t.Nodes > largest.Nodes {
			largest = t
		}
	}
	field := "tiers[" + largest.Tier + "]."
	return errors.Join(
		atLeast(field+"bidi_settled_reduction", largest.BidiSettledReduction, goalMinReduction),
		atLeast(field+"bidi_speedup", largest.BidiSpeedup, goalMinBidiSpeedup))
}

func (r *GoalBenchResult) summary() string {
	parts := make([]string, len(r.Tiers))
	for i, t := range r.Tiers {
		parts[i] = fmt.Sprintf("%s %.2fx/%.2fx", t.Tier, t.BidiSettledReduction, t.BidiSpeedup)
	}
	return "bidi settled reduction/speedup " + strings.Join(parts, ", ")
}

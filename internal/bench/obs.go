package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"testing"
	"time"

	"lightpath/internal/core"
	"lightpath/internal/engine"
	"lightpath/internal/graph"
	"lightpath/internal/obs"
	"lightpath/internal/topo"
	"lightpath/internal/workload"
)

// ObsBenchResult is the machine-readable record of the telemetry
// overhead benchmark (written to BENCH_obs.json by cmd/wdmbench). It
// answers the question the obs layer must keep answering across
// revisions: what does instrumentation cost a routing query?
//
// Four variants of the same request stream are timed:
//
//   - baseline: core.Aux.Route straight against the snapshot's compiled
//     auxiliary graph — the pre-telemetry behaviour, no counters, no
//     histograms;
//   - tracer off: engine.Route — the production path, which records
//     latency histograms and outcome counters but no span tree;
//   - recorder on: Snapshot.RouteSpanned under an active flight-recorder
//     trace — every request builds a span tree and is retained in the
//     recorder ring, the always-on wdmserve configuration (wdmserve's
//     explain verb renders from the same span tree);
//   - sampler on: engine.Route again, but with a background obs.Sampler
//     snapshotting the registry into its history ring at a fast cadence
//     — the continuous self-observation configuration.
//
// The result also records span-layer allocation counts on the cached
// RouteFrom path (testing.AllocsPerRun): with the recorder off the
// spanned call must not allocate at all — that is the contract letting
// the span plumbing stay compiled into the hot path.
type ObsBenchResult struct {
	Topology string `json:"topology"`
	Nodes    int    `json:"nodes"`
	Links    int    `json:"links"`
	K        int    `json:"k"`
	Requests int    `json:"requests"`

	BaselineNsPerOp   int64 `json:"baseline_ns_per_op"`
	TracerOffNsPerOp  int64 `json:"tracer_off_ns_per_op"`
	RecorderOnNsPerOp int64 `json:"recorder_on_ns_per_op"`
	SamplerOnNsPerOp  int64 `json:"sampler_on_ns_per_op"`

	// Overheads are relative to baseline; the tracer-off figure is the
	// always-on cost of metrics and must stay under a few percent.
	TracerOffOverheadPct  float64 `json:"tracer_off_overhead_pct"`
	RecorderOnOverheadPct float64 `json:"recorder_on_overhead_pct"`
	// SamplerOverheadPct compares engine.Route with a fast background
	// sampler against the same path sampler-off (tracer_off_ns_per_op):
	// the cost a running history ring imposes on the request stream.
	SamplerOverheadPct float64 `json:"sampler_overhead_pct"`

	// Allocations per op on the cached RouteFromSpanned path, recorder
	// off (must be zero) and recorder on (the span tree's cost).
	SpanAllocsOffPerOp float64 `json:"span_allocs_off_per_op"`
	SpanAllocsOnPerOp  float64 `json:"span_allocs_on_per_op"`
	// SamplerAllocsPerOp is the cached RouteFrom path with a background
	// sampler attached (must stay zero — sampling reads the registry
	// from its own goroutine and must not push allocations into the
	// routing hot path).
	SamplerAllocsPerOp float64 `json:"sampler_allocs_per_op"`

	// Route latency quantiles as the engine's own histogram reports
	// them after the timed runs — the same numbers `stats` prints.
	RouteLatencyP50Ns float64 `json:"route_latency_p50_ns"`
	RouteLatencyP95Ns float64 `json:"route_latency_p95_ns"`
	RouteLatencyP99Ns float64 `json:"route_latency_p99_ns"`

	GeneratedAt string `json:"generated_at"`
}

// spanBenchRequest is the root span name of the benchmark's
// recorder-on request stream.
const spanBenchRequest = "bench_request"

// ObsReport measures the telemetry overhead benchmark on NSFNET and
// returns the machine-readable result. All variants route the
// same request stream on the same pinned snapshot with the same
// Dijkstra queue, so the deltas isolate instrumentation cost; each
// variant keeps its best repetition (least scheduler noise).
func ObsReport(cfg Config) (*ObsBenchResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 41))
	nw, err := workload.Build(topo.NSFNET(), workload.Spec{
		K:         8,
		AvailProb: 0.6,
		Conv:      workload.ConvUniform,
		ConvCost:  0.3,
	}, rng)
	if err != nil {
		return nil, err
	}
	n := nw.NumNodes()
	requests := cfg.scaled(2000)

	eng, err := engine.New(nw, &engine.Options{CacheSize: n})
	if err != nil {
		return nil, err
	}
	// Light occupancy so the snapshot is a realistic residual.
	for owner := int64(1); owner <= 4; owner++ {
		s, d := rng.Intn(n), rng.Intn(n)
		for d == s {
			d = rng.Intn(n)
		}
		//lint:ignore leasepair seed occupancy is deliberately held for the whole benchmark; the engine is discarded with the process
		if _, err := eng.RouteAndAllocate(owner, s, d); err != nil {
			return nil, fmt.Errorf("bench: seed occupancy: %w", err)
		}
	}

	pairs := make([][2]int, requests)
	for i := range pairs {
		s, d := rng.Intn(n), rng.Intn(n)
		for d == s {
			d = rng.Intn(n)
		}
		pairs[i] = [2]int{s, d}
	}

	// All variants must search the same graph: pin one snapshot and
	// route against its compiled Aux directly for the baseline. Blocked
	// pairs are fine — every variant blocks on the same ones.
	snap := eng.Snapshot()
	aux := snap.Aux()
	opts := &core.Options{Queue: graph.QueueBinary} // the engine's default queue

	baseline, err := bestRep(cfg.reps(), func() error {
		for _, p := range pairs {
			if _, err := aux.Route(p[0], p[1], opts); err != nil && !errors.Is(err, core.ErrNoRoute) {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	tracerOff, err := bestRep(cfg.reps(), func() error {
		for _, p := range pairs {
			if _, err := eng.Route(p[0], p[1]); err != nil && !errors.Is(err, core.ErrNoRoute) {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Recorder on: the always-on wdmserve configuration — every request
	// carries a span tree into the flight recorder ring.
	recTracer := obs.NewTracer(&obs.TracerOptions{SlowThreshold: -1})
	recorderOn, err := bestRep(cfg.reps(), func() error {
		for _, p := range pairs {
			req := recTracer.Start(spanBenchRequest)
			_, err := eng.Snapshot().RouteSpanned(p[0], p[1], req.Root())
			recTracer.Finish(req)
			if err != nil && !errors.Is(err, core.ErrNoRoute) {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Sampler on: engine.Route with a background sampler snapshotting
	// the registry every 10ms — much faster than the wdmserve default
	// (1s) so the timed window sees many ticks. The routing thread only
	// ever touches the same atomics it already writes; the sampler reads
	// them from its own goroutine, so this should cost ~nothing.
	sampler := obs.NewSampler(eng.Metrics(), &obs.SamplerOptions{
		Interval: 10 * time.Millisecond,
		Capacity: obs.DefaultHistorySize,
	})
	sampler.Start()
	samplerOn, err := bestRep(cfg.reps(), func() error {
		for _, p := range pairs {
			if _, err := eng.Route(p[0], p[1]); err != nil && !errors.Is(err, core.ErrNoRoute) {
				return err
			}
		}
		return nil
	})
	sampler.Stop()
	if err != nil {
		return nil, err
	}

	// Span-layer allocation counts on the cached RouteFrom path. Warm
	// the SourceTree cache first so both measurements hit it.
	src := pairs[0][0]
	if _, err := eng.RouteFrom(src); err != nil {
		return nil, err
	}
	offTracer := obs.NewTracer(&obs.TracerOptions{Disabled: true})
	var allocErr error
	allocsOff := testing.AllocsPerRun(200, func() {
		req := offTracer.Start(spanBenchRequest)
		if _, err := eng.Snapshot().RouteFromSpanned(src, req.Root()); err != nil {
			allocErr = err
		}
		offTracer.Finish(req)
	})
	allocsOn := testing.AllocsPerRun(200, func() {
		req := recTracer.Start(spanBenchRequest)
		if _, err := eng.Snapshot().RouteFromSpanned(src, req.Root()); err != nil {
			allocErr = err
		}
		recTracer.Finish(req)
	})
	// Cached RouteFrom with a sampler attached. AllocsPerRun counts
	// process-wide mallocs, so the sampler here runs at a 1s interval:
	// sampling stays enabled (the contract under test) but no tick can
	// land inside the sub-millisecond measurement window and charge its
	// own snapshot allocations to the routing path.
	allocSampler := obs.NewSampler(eng.Metrics(), &obs.SamplerOptions{Interval: time.Second})
	allocSampler.Start()
	samplerAllocs := testing.AllocsPerRun(200, func() {
		if _, err := eng.RouteFrom(src); err != nil {
			allocErr = err
		}
	})
	allocSampler.Stop()
	if allocErr != nil {
		return nil, allocErr
	}

	hist, ok := eng.Metrics().Snapshot()["engine_route_latency_ns"].(obs.HistogramSnapshot)
	if !ok {
		return nil, errors.New("bench: engine registry has no route latency histogram")
	}

	res := &ObsBenchResult{
		Topology:           "nsfnet",
		Nodes:              n,
		Links:              nw.NumLinks(),
		K:                  nw.K(),
		Requests:           requests,
		BaselineNsPerOp:    baseline.Nanoseconds() / int64(requests),
		TracerOffNsPerOp:   tracerOff.Nanoseconds() / int64(requests),
		RecorderOnNsPerOp:  recorderOn.Nanoseconds() / int64(requests),
		SamplerOnNsPerOp:   samplerOn.Nanoseconds() / int64(requests),
		SpanAllocsOffPerOp: allocsOff,
		SpanAllocsOnPerOp:  allocsOn,
		SamplerAllocsPerOp: samplerAllocs,
		RouteLatencyP50Ns:  hist.P50,
		RouteLatencyP95Ns:  hist.P95,
		RouteLatencyP99Ns:  hist.P99,
		GeneratedAt:        time.Now().UTC().Format(time.RFC3339),
	}
	if res.BaselineNsPerOp > 0 {
		res.TracerOffOverheadPct = 100 * float64(res.TracerOffNsPerOp-res.BaselineNsPerOp) / float64(res.BaselineNsPerOp)
		res.RecorderOnOverheadPct = 100 * float64(res.RecorderOnNsPerOp-res.BaselineNsPerOp) / float64(res.BaselineNsPerOp)
	}
	if res.TracerOffNsPerOp > 0 {
		res.SamplerOverheadPct = 100 * float64(res.SamplerOnNsPerOp-res.TracerOffNsPerOp) / float64(res.TracerOffNsPerOp)
	}
	return res, nil
}

// bestRep runs fn reps times and keeps the fastest wall-clock run —
// the standard defence against scheduler noise when comparing
// near-identical code paths.
func bestRep(reps int, fn func() error) (time.Duration, error) {
	if reps < 1 {
		reps = 1
	}
	var best time.Duration
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(start); rep == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// WriteJSON records the result at path (pretty-printed, trailing
// newline) for downstream tooling.
func (r *ObsBenchResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// RunObs benchmarks the telemetry layer: what the always-on metrics
// cost a routing query, and what span recording costs on top.
func RunObs(w io.Writer, cfg Config) error {
	r, err := ObsReport(cfg)
	if err != nil {
		return err
	}
	t := &Table{
		Title: "Obs — telemetry overhead on the routing hot path (NSFNET, k=8)",
		Note: "baseline = core Aux.Route, no telemetry; tracer off = engine.Route (metrics only);\n" +
			"recorder on = Snapshot.RouteSpanned under a flight-recorder trace (scripts/bench_obs.sh writes this as BENCH_obs.json)",
		Headers: []string{"metric", "value"},
	}
	t.AddRow("requests", r.Requests)
	t.AddRow("baseline ns/op", r.BaselineNsPerOp)
	t.AddRow("tracer off ns/op", r.TracerOffNsPerOp)
	t.AddRow("recorder on ns/op", r.RecorderOnNsPerOp)
	t.AddRow("sampler on ns/op", r.SamplerOnNsPerOp)
	t.AddRow("tracer off overhead", fmt.Sprintf("%+.2f%%", r.TracerOffOverheadPct))
	t.AddRow("recorder on overhead", fmt.Sprintf("%+.2f%%", r.RecorderOnOverheadPct))
	t.AddRow("sampler on overhead", fmt.Sprintf("%+.2f%%", r.SamplerOverheadPct))
	t.AddRow("span allocs/op (recorder off)", r.SpanAllocsOffPerOp)
	t.AddRow("span allocs/op (recorder on)", r.SpanAllocsOnPerOp)
	t.AddRow("allocs/op (sampler on)", r.SamplerAllocsPerOp)
	t.AddRow("route latency p50", time.Duration(r.RouteLatencyP50Ns))
	t.AddRow("route latency p95", time.Duration(r.RouteLatencyP95Ns))
	t.AddRow("route latency p99", time.Duration(r.RouteLatencyP99Ns))
	t.render(w)
	return nil
}

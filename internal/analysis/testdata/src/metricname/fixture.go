// Package metricname is a golden fixture for the metricname analyzer:
// obs.Registry names must be unique compile-time constants in
// lower_snake form; span names must also funnel through one shared
// constant each, span attribute keys must be lower_snake constants
// (duplicates allowed), and obs.Health rule names follow the metric
// contract (unique lower_snake constants).
package metricname

import (
	"fmt"

	"lightpath/internal/obs"
)

const constName = "requests_total"

func register(r *obs.Registry, k int) {
	r.Counter("engine_ops_total")
	r.Counter(constName) // named constant: fine
	r.Histogram("route_latency_ns", nil)
	r.Gauge("queueDepth")                     // want `not lower_snake`
	r.Counter("2fast")                        // want `not lower_snake`
	r.Counter("trailing_")                    // want `not lower_snake`
	r.Counter(fmt.Sprintf("shard_%d_ops", k)) // want `must be a compile-time string constant`
	r.Histogram("engine_ops_total", nil)      // want `already registered`
	r.GaugeFunc("depth_gauge", func() float64 { return 0 })
	r.GaugeFunc("depth_gauge", func() float64 { return 1 }) // want `already registered`
}

const (
	spanWork    = "fixture_work"
	spanWorkDup = "fixture_work" // same value, different constant
	attrItems   = "items"
)

func spans(tr *obs.Tracer, k int) {
	req := tr.Start(spanWork)          // named constant: fine
	_ = obs.NewReqTrace(spanWork)      // same constant, private tree: fine
	_ = obs.NewReqTrace("fixtureRoot") // want `not lower_snake`
	sp := req.Root().StartChild("fixture_step")
	sp.StartChild(spanWork)               // same constant reused: fine
	sp.StartChild("fixtureCamel")         // want `not lower_snake`
	sp.StartChild(fmt.Sprintf("s_%d", k)) // want `span name must be a compile-time string constant`
	sp.StartChild("fixture_work")         // want `span name "fixture_work" already declared .*; share one named constant`
	sp.StartChild(spanWorkDup)            // want `span name "fixture_work" already declared .*; share one named constant`
	req.Root().StartChild("fixture_step") // want `span name "fixture_step" already declared .*; share one named constant`
	sp.SetInt(attrItems, 3)
	sp.SetInt(attrItems, 9)                // duplicate attribute keys are fine
	sp.SetStr("BadKey", "x")               // want `span attribute key "BadKey" is not lower_snake`
	sp.SetFloat(fmt.Sprintf("a_%d", k), 1) // want `span attribute key must be a compile-time string constant`
	sp.SetBool("blocked", true)
	tr.Finish(req)
}

const ruleName = "fixture_shed_rate_high"

func healthRules(h *obs.Health, k int) {
	_ = h.AddRule("fixture_blocked_rate", obs.RuleSpec{Metric: "engine_ops_total", Kind: obs.RuleRate, Threshold: 1})
	_ = h.AddRule(ruleName, obs.RuleSpec{Metric: "requests_total", Kind: obs.RuleRate, Threshold: 1}) // named constant: fine
	_ = h.AddRule("Shed-Rate", obs.RuleSpec{Metric: "requests_total", Threshold: 1})                  // want `health rule name "Shed-Rate" is not lower_snake`
	_ = h.AddRule(fmt.Sprintf("rule_%d", k), obs.RuleSpec{Metric: "requests_total", Threshold: 1})    // want `health rule name must be a compile-time string constant`
	_ = h.AddRule("fixture_blocked_rate", obs.RuleSpec{Metric: "route_latency_ns", Threshold: 2})     // want `health rule name "fixture_blocked_rate" already registered`
}

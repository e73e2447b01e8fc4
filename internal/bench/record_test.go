package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func engineAt(speedup, hitRate float64) *EngineBenchResult {
	return &EngineBenchResult{Speedup: speedup, CacheHitRate: hitRate}
}

func obsAt(offPct, samplerPct, spanAllocsOff, samplerAllocs float64) *ObsBenchResult {
	return &ObsBenchResult{
		TracerOffOverheadPct: offPct,
		SamplerOverheadPct:   samplerPct,
		SpanAllocsOffPerOp:   spanAllocsOff,
		SamplerAllocsPerOp:   samplerAllocs,
	}
}

func churnAt(speedups ...float64) *ChurnBenchResult {
	r := &ChurnBenchResult{}
	for i, s := range speedups {
		r.Tiers = append(r.Tiers, ChurnTier{Name: "tier" + string(rune('0'+i)), Speedup: s})
	}
	return r
}

func goalTierAt(name string, nodes int, reduction float64) GoalTierResult {
	return GoalTierResult{Tier: name, Nodes: nodes, BidiSettledReduction: reduction, BidiSpeedup: 4}
}

func goalSpeedupAt(name string, nodes int, speedup float64) GoalTierResult {
	tier := goalTierAt(name, nodes, 2)
	tier.BidiSpeedup = speedup
	return tier
}

func goalAt(tiers ...GoalTierResult) *GoalBenchResult { return &GoalBenchResult{Tiers: tiers} }

// TestRecordGates feeds every gated field a synthetic regression: the
// passing fixture sits exactly on the bound, the failing one just past
// it, and the failure must name that field and that bound — and no
// other field.
func TestRecordGates(t *testing.T) {
	cases := []struct {
		name       string
		pass, fail result
		field      string
		bound      string
	}{
		{"engine speedup", engineAt(50, 0.9), engineAt(49.9, 0.9), "speedup", ">= 50"},
		{"engine hit rate", engineAt(50, 0.9), engineAt(50, 0.899), "cache_hit_rate", ">= 0.9"},
		{"obs tracer off", obsAt(1, 1, 0, 0), obsAt(1.01, 1, 0, 0), "tracer_off_overhead_pct", "<= 1"},
		{"obs sampler", obsAt(1, 1, 0, 0), obsAt(1, 1.01, 0, 0), "sampler_overhead_pct", "<= 1"},
		{"obs span allocs", obsAt(1, 1, 0, 0), obsAt(1, 1, 1, 0), "span_allocs_off_per_op", "<= 0"},
		{"obs sampler allocs", obsAt(1, 1, 0, 0), obsAt(1, 1, 0, 1), "sampler_allocs_per_op", "<= 0"},
		{"churn every tier", churnAt(2, 2, 2), churnAt(8, 1.99, 16), "tiers[tier1].speedup", ">= 2"},
		{"goal largest tier",
			goalAt(goalTierAt("small", 14, 5), goalTierAt("large", 300, 2)),
			goalAt(goalTierAt("small", 14, 5), goalTierAt("large", 300, 1.99)),
			"tiers[large].bidi_settled_reduction", ">= 2"},
		// The largest tier is found by node count, not by position: a
		// weak small tier listed last must not fail the record, and a
		// weak large tier listed first must.
		{"goal largest tier not last",
			goalAt(goalTierAt("large", 300, 2), goalTierAt("small", 14, 1)),
			goalAt(goalTierAt("large", 300, 1.99), goalTierAt("small", 14, 5)),
			"tiers[large].bidi_settled_reduction", ">= 2"},
		{"goal bidi speedup",
			goalAt(goalSpeedupAt("large", 300, 4), goalSpeedupAt("small", 14, 1)),
			goalAt(goalSpeedupAt("small", 14, 9), goalSpeedupAt("large", 300, 3.99)),
			"tiers[large].bidi_speedup", ">= 4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.pass.Gate(); err != nil {
				t.Fatalf("passing fixture failed its gate: %v", err)
			}
			err := tc.fail.Gate()
			if err == nil {
				t.Fatal("synthetic regression passed the gate")
			}
			msg := err.Error()
			if !strings.Contains(msg, tc.field) || !strings.Contains(msg, tc.bound) {
				t.Fatalf("gate error %q does not name field %q and bound %q", msg, tc.field, tc.bound)
			}
			if strings.Contains(msg, "\n") {
				t.Fatalf("gate blamed more than the regressed field:\n%s", msg)
			}
		})
	}
	if churnAt().Gate() == nil || goalAt().Gate() == nil {
		t.Fatal("a record with no tiers must fail its gate")
	}
}

// TestEveryRecordMeasures drives each record's measurement at reduced
// scale. Gates are not asserted — their timing ratios are noise at test
// scale — but every measurement must complete, which for goal includes
// its per-query cost cross-check across the three search modes, and
// must survive the shared JSON writer.
func TestEveryRecordMeasures(t *testing.T) {
	for _, rec := range records {
		t.Run(rec.name, func(t *testing.T) {
			res, err := rec.measure(tinyConfig())
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "BENCH_"+rec.name+".json")
			if err := writeJSON(path, res); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var loose map[string]any
			if err := json.Unmarshal(data, &loose); err != nil {
				t.Fatal(err)
			}
			if _, ok := loose["generated_at"]; !ok {
				t.Fatalf("record missing generated_at: %s", data)
			}
			if res.summary() == "" {
				t.Fatal("empty summary")
			}
		})
	}
}

func TestWriteRecordsRejectsUnknownName(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := WriteRecords([]string{"engine", "nope"}, dir, &out)
	if err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("unknown record: got %v", err)
	}
	// Rejected before anything ran: no record written, nothing printed.
	if entries, _ := os.ReadDir(dir); len(entries) != 0 || out.Len() != 0 {
		t.Fatalf("unknown name still measured: %d files, output %q", len(entries), out.String())
	}
}

package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestEngineReportSpeedup pins the engine's reason to exist: serving a
// single-source query from the (source, epoch) tree cache must beat
// recompiling the auxiliary graph per request by a wide margin. The
// acceptance floor is 5x; in practice it is orders of magnitude.
func TestEngineReportSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	r, err := EngineReport(Config{Seed: 1998, Scale: 0.25, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Speedup < 5 {
		t.Fatalf("cached speedup %.1fx, want >= 5x (cached %dns, uncached %dns)",
			r.Speedup, r.CachedNsPerOp, r.UncachedNsPerOp)
	}
	if r.CacheHitRate <= 0 {
		t.Fatalf("cache hit rate %v, want > 0", r.CacheHitRate)
	}
	if r.Epochs == 0 || r.EpochsPerSec <= 0 {
		t.Fatalf("no epoch throughput measured: %+v", r)
	}
}

// TestEngineReportJSONRoundTrips checks the BENCH_engine.json writer
// produces a parseable record with the fields downstream tooling keys on.
func TestEngineReportJSONRoundTrips(t *testing.T) {
	r := &EngineBenchResult{
		Topology: "nsfnet", Nodes: 14, Links: 42, K: 8, Requests: 100,
		CachedNsPerOp: 40, UncachedNsPerOp: 200000, Speedup: 5000,
		CacheHitRate: 0.9, Epochs: 10, EpochsPerSec: 12000,
		GeneratedAt: "2026-08-06T00:00:00Z",
	}
	path := filepath.Join(t.TempDir(), "BENCH_engine.json")
	if err := writeJSON(path, r); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back EngineBenchResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != *r {
		t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", back, *r)
	}
	var loose map[string]any
	if err := json.Unmarshal(data, &loose); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"cached_ns_per_op", "uncached_ns_per_op", "speedup", "cache_hit_rate", "epochs_per_sec"} {
		if _, ok := loose[key]; !ok {
			t.Fatalf("JSON record missing %q: %s", key, data)
		}
	}
}

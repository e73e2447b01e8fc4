// Command wirebench is the repository benchmark. It drives a wdmserve
// binary built from the tree under test, launched with only instance
// flags, over loopback TCP from one generator process using at most two
// connections and threads, and checks every answer it times.
//
// With -trace 0 it prints the end-to-end metrics of the wire run. With
// -trace 1 it also replays the same seeded request stream in process on
// an engine, Tracer and Session configured like wdmserve's defaults,
// times the calls into each layer, and prints the per-layer ledger.
// Either way the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; wirebench/run.sh builds both
// binaries and passes -server):
//
//	wirebench -server wdmserve -workload nsfnet-mixed -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("wirebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: nsfnet-mixed|sparse300-read")
	seed := fs.Int64("seed", 1, "workload seed: the request stream, probes and checker samples")
	seconds := fs.Int("seconds", 20, "length of the timed phase")
	trace := fs.Int("trace", 0, "1: add the traced in-process replay and print per-layer metrics")
	bin := fs.String("server", "", "path to the wdmserve binary under test")
	outDir := fs.String("out", ".bench_build", "directory for the traced replay's span JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	var sp spec
	if err == nil {
		sp, err = readSpec(specPath)
	}
	if err == nil && !sp.declares(*name) {
		err = fmt.Errorf("workload %s is not declared in %s", *name, specPath)
	}
	if err == nil && *bin == "" {
		err = fmt.Errorf("-server is required")
	}
	if err == nil && (*seconds < 1 || *trace < 0 || *trace > 1) {
		err = fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wirebench:", err)
		return 2
	}
	// The generator's threads: nproc on the reference host, which the
	// server shares.
	runtime.GOMAXPROCS(conns)
	// Fewer collections of the generator's reply log: a collection takes
	// one of the two CPUs the server shares.
	debug.SetGCPercent(400)

	rn := &runner{w: w, seed: *seed, timed: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, bin: *bin, outDir: *outDir}
	res, err := rn.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wirebench:", err)
		return 1
	}
	if res.correct() {
		if res.e2e, err = ordered(res.e2e, sp.EndToEnd); err == nil && rn.trace {
			res.layer, err = ordered(res.layer, sp.PerLayer)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "wirebench:", err)
			return 1
		}
	}
	if err := res.print(stdout, rn.trace); err != nil {
		fmt.Fprintln(os.Stderr, "wirebench:", err)
		return 1
	}
	if !res.correct() {
		for _, f := range res.failures {
			fmt.Fprintln(os.Stderr, "wirebench: check failed:", f)
		}
		return 1
	}
	return 0
}

// specPath is the benchmark's declaration, relative to the repository
// root the benchmark runs from.
const specPath = "BENCHMARK.json"

// metricSpec is one metric BENCHMARK.json declares.
type metricSpec struct{ Name, Unit string }

// spec is the part of BENCHMARK.json a run answers to: its workloads and
// the metrics every run reports, in ledger order — end-to-end ones
// without tracing, per-layer ones with it.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricSpec `json:"end_to_end"`
	PerLayer  []metricSpec `json:"per_layer"`
}

func readSpec(path string) (spec, error) {
	var sp spec
	data, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

func (sp *spec) declares(workload string) bool {
	for _, w := range sp.Workloads {
		if w.Name == workload {
			return true
		}
	}
	return false
}

// ordered returns ms in the order of specs, failing unless ms holds
// exactly the declared metrics with their declared units.
func ordered(ms []metric, specs []metricSpec) ([]metric, error) {
	byName := map[string]metric{}
	for _, m := range ms {
		if _, dup := byName[m.name]; dup {
			return nil, fmt.Errorf("metric %s reported twice", m.name)
		}
		byName[m.name] = m
	}
	out := make([]metric, 0, len(specs))
	for _, sp := range specs {
		m, ok := byName[sp.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s not reported", sp.Name)
		}
		if m.unit != sp.Unit {
			return nil, fmt.Errorf("metric %s in %s, declared in %s", sp.Name, m.unit, sp.Unit)
		}
		out = append(out, m)
		delete(byName, sp.Name)
	}
	for name := range byName {
		return nil, fmt.Errorf("metric %s is not declared", name)
	}
	return out, nil
}

// metric is one reported number with its unit and the sample count (or
// ratio base) behind it.
type metric struct {
	name, unit string
	value      float64
	n          int
}

// result is everything one run reports.
type result struct {
	attempted, failed int
	e2e, layer        []metric
	notes             []string
	failures          []error
}

func (r *result) correct() bool { return len(r.failures) == 0 }

// print writes the ledger — every metric with unit and sample count,
// then the notes — followed by the one-line JSON result, whose metrics
// are the end-to-end ones without tracing and the per-layer ones with.
func (r *result) print(w io.Writer, trace bool) error {
	section := func(title string, ms []metric) {
		fmt.Fprintf(w, "# %s\n", title)
		for _, m := range ms {
			fmt.Fprintf(w, "%-28s %16.4f %-6s n=%d\n", m.name, m.value, m.unit, m.n)
		}
	}
	section("end-to-end", r.e2e)
	if trace {
		section("per-layer", r.layer)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	ms := r.e2e
	if trace {
		ms = r.layer
	}
	if r.correct() {
		for _, m := range ms {
			out.Metrics[m.name] = value{m.value, m.unit}
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// A record is one committed in-process benchmark: measured by its
// *Report function at full scale with the default seed, written to
// BENCH_<name>.json and checked by its result's Gate. reps is fixed per
// record — the obs record needs more because its 1% gates sit close to
// scheduler noise.
type record struct {
	name    string
	reps    int
	measure func(Config) (result, error)
}

// result is what every record's measurement returns.
type result interface {
	// Gate reports every gated field outside its bound, naming the
	// field and the bound; nil means the record holds its claims.
	Gate() error
	// summary is the one-line digest printed after the record is written.
	summary() string
}

var records = []record{
	{"engine", 5, func(c Config) (result, error) { return nilOnErr(EngineReport(c)) }},
	{"obs", 15, func(c Config) (result, error) { return nilOnErr(ObsReport(c)) }},
	{"churn", 5, func(c Config) (result, error) { return nilOnErr(ChurnReport(c)) }},
	{"goal", 5, func(c Config) (result, error) { return nilOnErr(GoalReport(c)) }},
}

// nilOnErr keeps a failed measurement's nil pointer from becoming a
// non-nil interface.
func nilOnErr[R result](r R, err error) (result, error) {
	if err != nil {
		return nil, err
	}
	return r, nil
}

// RecordNames lists the records WriteRecords accepts, in run order.
func RecordNames() []string {
	names := make([]string, len(records))
	for i, r := range records {
		names[i] = r.name
	}
	return names
}

// WriteRecords measures each named record, writes it to
// dir/BENCH_<name>.json, prints its one-line summary to w and only then
// checks its gate, so a failing record still leaves its evidence on
// disk. Every named record runs; the returned error joins all gate
// failures. Unknown names are rejected before anything is measured.
func WriteRecords(names []string, dir string, w io.Writer) error {
	todo := make([]record, 0, len(names))
	for _, name := range names {
		i := 0
		for i < len(records) && records[i].name != name {
			i++
		}
		if i == len(records) {
			return fmt.Errorf("bench: unknown record %q (have %s)", name, strings.Join(RecordNames(), ","))
		}
		todo = append(todo, records[i])
	}
	var failed []error
	for _, rec := range todo {
		res, err := rec.measure(Config{Seed: DefaultConfig().Seed, Scale: 1, Reps: rec.reps})
		if err != nil {
			return fmt.Errorf("%s record: %w", rec.name, err)
		}
		path := filepath.Join(dir, "BENCH_"+rec.name+".json")
		if err := writeJSON(path, res); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
		fmt.Fprintf(w, "%s benchmark written to %s (%s)\n", rec.name, path, res.summary())
		if err := res.Gate(); err != nil {
			for _, line := range strings.Split(err.Error(), "\n") {
				failed = append(failed, fmt.Errorf("%s gate: %s", rec.name, line))
			}
		}
	}
	return errors.Join(failed...)
}

// writeJSON records v at path, pretty-printed with a trailing newline.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// atLeast and atMost check one gated field against its bound. A NaN
// fails both.
func atLeast(field string, got, bound float64) error {
	if got >= bound {
		return nil
	}
	return fmt.Errorf("%s = %.4g, want >= %g", field, got, bound)
}

func atMost(field string, got, bound float64) error {
	if got <= bound {
		return nil
	}
	return fmt.Errorf("%s = %.4g, want <= %g", field, got, bound)
}

// bestOf times each arm reps times and keeps each arm's fastest run —
// the standard defence against scheduler noise when comparing
// near-identical code paths. The arms run round-robin within each rep,
// so drift in machine state (frequency, background load, GC debt)
// lands on every arm alike instead of on whichever block ran during it.
func bestOf(reps int, arms ...arm) ([]time.Duration, error) {
	best := make([]time.Duration, len(arms))
	for rep := 0; rep < max(reps, 1); rep++ {
		for i, a := range arms {
			if a.before != nil {
				a.before()
			}
			start := time.Now()
			err := a.run()
			d := time.Since(start)
			if a.after != nil {
				a.after()
			}
			if err != nil {
				return nil, err
			}
			if rep == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	return best, nil
}

// arm is one timed variant of a bestOf comparison. before and after,
// when set, run outside the clock around every timed run.
type arm struct {
	run           func() error
	before, after func()
}

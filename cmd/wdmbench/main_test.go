package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestBenchList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"example", "compare", "k-independence", "distributed"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("list missing %q:\n%s", want, out.String())
		}
	}
}

func TestBenchSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "example", "-scale", "0.05", "-reps", "1"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "Fig. 2 wavelength shores") {
		t.Fatalf("example experiment output wrong:\n%s", out.String())
	}
}

func TestBenchErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "warp"}, &out); err == nil {
		t.Fatal("unknown experiment must fail")
	}
	if err := run([]string{"-scale", "-2"}, &out); err == nil {
		t.Fatal("negative scale must fail")
	}
	if err := run([]string{"-zzz"}, &out); err == nil {
		t.Fatal("bad flag must fail")
	}
}

func TestBenchRevisitExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "revisit", "-scale", "0.05", "-reps", "1"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "Fig. 5 scenario") || !strings.Contains(s, "loop-freedom") {
		t.Fatalf("revisit output wrong:\n%s", s)
	}
}

func TestBenchCSVFormat(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "revisit", "-scale", "0.05", "-reps", "1", "-format", "csv"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "# E6") {
		t.Fatalf("csv output wrong:\n%s", out.String())
	}
	if err := run([]string{"-format", "warp"}, &out); err == nil {
		t.Fatal("unknown format must fail")
	}
}

// TestBenchRecordFixedSettings: -record measures at fixed settings, so
// combining it with any other flag is an error, as is an unknown
// record; neither runs a measurement.
func TestBenchRecordFixedSettings(t *testing.T) {
	for _, args := range [][]string{
		{"-record", "engine", "-experiment", "compare"},
		{"-record", "engine", "-scale", "0.25"},
		{"-record", "engine", "-reps", "1"},
		{"-record", "warp"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Fatalf("%v must fail", args)
		}
		if out.Len() != 0 {
			t.Fatalf("%v produced output before failing:\n%s", args, out.String())
		}
	}
}

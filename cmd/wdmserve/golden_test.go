package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// goldenCases are the scripted REPL sessions with committed transcripts.
// Their flags pin -directed plain, the mode the transcripts were
// captured under; TestREPLGoldenDefaultModeOnlyRenamesBanner runs the
// same sessions under the default mode.
var goldenCases = []struct {
	name   string
	flags  []string
	golden string
}{
	{"paper", []string{"-topo", "paper", "-script", "testdata/golden_script.txt"},
		"testdata/golden_paper.txt"},
	{"nsfnet", []string{"-topo", "nsfnet", "-k", "6", "-seed", "3", "-script", "testdata/golden_script_nsfnet.txt"},
		"testdata/golden_nsfnet.txt"},
}

// TestREPLGoldenByteIdentical pins the REPL's output byte-for-byte
// against transcripts captured before the command loop was extracted
// into internal/serve: the extraction (and the TCP front-end riding on
// it) must not change what scripted deployments see on stdin. The
// scripts stick to deterministic verbs — stats/metrics/trace-on-route
// answers embed wall-clock latencies (and now uptime/health columns
// fed by the live sampler), so those are pinned by substring in
// TestServeStatsIncludesHitRateEpochAndLatency instead of by bytes.
func TestREPLGoldenByteIdentical(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			out := runTranscript(t, append([]string{"-directed", "plain"}, tc.flags...))
			if out != string(want) {
				t.Fatalf("REPL output diverged from pre-extraction golden %s:\n%s",
					tc.golden, diffLines(string(want), out))
			}
		})
	}
}

// TestREPLGoldenDefaultModeOnlyRenamesBanner: the default point-query
// mode (bidirectional search) answers every scripted verb with the
// bytes the paper's plain search gives. The only line that may differ
// is the banner, and there only in the mode word.
func TestREPLGoldenDefaultModeOnlyRenamesBanner(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			plain := runTranscript(t, append([]string{"-directed", "plain"}, tc.flags...))
			def := runTranscript(t, tc.flags)
			pb, prest, _ := strings.Cut(plain, "\n")
			db, drest, _ := strings.Cut(def, "\n")
			if want := strings.Replace(pb, ", plain search)", ", bidi search)", 1); db != want || pb == want {
				t.Fatalf("default banner %q, want the plain banner %q with the mode word bidi", db, pb)
			}
			if drest != prest {
				t.Fatalf("default-mode transcript diverged from plain:\n%s", diffLines(prest, drest))
			}
		})
	}
}

// runTranscript runs one scripted REPL session and returns its output.
func runTranscript(t *testing.T, flags []string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(flags, strings.NewReader(""), &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	return out.String()
}

// diffLines renders the first divergence between two transcripts.
func diffLines(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want: %q\n  got:  %q", i+1, w, g)
		}
	}
	return "transcripts differ only in length"
}

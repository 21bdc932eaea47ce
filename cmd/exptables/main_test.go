package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestQuickGolden pins the exact stdout of every experiment at quick scale
// on one function and one repetition: any drift in cell construction,
// seeding, aggregation or table rendering fails here. Wall-clock timings go
// to stderr, so stdout is byte-identical across runs and worker counts.
func TestQuickGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "quick-sphere.golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if err := run([]string{"-exp", "all", "-scale", "quick", "-funcs", "Sphere", "-reps", "1", "-no-ascii"}, &out, &errOut); err != nil {
		t.Fatalf("%v\n%s", err, errOut.String())
	}
	if out.String() != string(golden) {
		t.Fatalf("exptables output drifted from golden file:\n--- got ---\n%s--- want ---\n%s", out.String(), golden)
	}
}

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"Experiment 1: Foo (Table 1)": "experiment_1_foo_table_1",
		"a-b_c d":                     "a_b_c_d",
		"UPPER":                       "upper",
		"weird*chars?":                "weirdchars",
	}
	for in, want := range cases {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		if seen[e.id] {
			t.Fatalf("duplicate experiment id %q", e.id)
		}
		seen[e.id] = true
		if e.sweep == nil {
			t.Fatalf("experiment %q has no sweep builder", e.id)
		}
		if e.title == "" {
			t.Fatalf("experiment %q has no title", e.id)
		}
	}
	for _, id := range []string{"1", "2", "3", "4", "a1", "a2", "a3", "a4", "a5"} {
		if !seen[id] {
			t.Fatalf("experiment %q missing", id)
		}
	}
}

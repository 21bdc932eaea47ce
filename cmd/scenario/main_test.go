package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gossipopt/internal/scenario"
)

// runCmd invokes run with captured output streams.
func runCmd(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var out, errOut bytes.Buffer
	err := run(args, &out, &errOut)
	return out.String(), errOut.String(), err
}

func TestListNamesEveryBuiltin(t *testing.T) {
	out, _, err := runCmd(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range scenario.BuiltinNames() {
		if !strings.Contains(out, name) {
			t.Fatalf("-list output missing %q:\n%s", name, out)
		}
	}
	for _, name := range scenario.BuiltinSweepNames() {
		if !strings.Contains(out, name) {
			t.Fatalf("-list output missing sweep %q:\n%s", name, out)
		}
	}
}

func TestUnknownScenarioListsAvailableNames(t *testing.T) {
	_, _, err := runCmd(t, "-run", "no-such-scenario")
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	for _, name := range []string{"baseline", "netsplit-heal", "lossy-wan"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error does not list %q: %v", name, err)
		}
	}
}

// TestEveryBuiltinRuns drives each built-in through the real CLI path.
func TestEveryBuiltinRuns(t *testing.T) {
	for _, name := range scenario.BuiltinNames() {
		out, errOut, err := runCmd(t, "-run", name, "-workers", "2")
		if err != nil {
			t.Fatalf("scenario %q failed: %v", name, err)
		}
		if !strings.HasPrefix(out, "scenario,rep,seed,") {
			t.Fatalf("scenario %q: no CSV header:\n%s", name, out)
		}
		if !strings.Contains(errOut, "rep 0:") {
			t.Fatalf("scenario %q: no summary line:\n%s", name, errOut)
		}
	}
}

// Spec parse failures and flag errors exit with status 2: run must return
// an error that main maps to os.Exit(2) (every non-help error does).
func TestBadSpecFileIsAnError(t *testing.T) {
	_, _, err := runCmd(t, "-spec", filepath.Join("testdata", "bad.json"))
	if err == nil {
		t.Fatal("bad spec accepted")
	}
	if !strings.Contains(err.Error(), "nodez") {
		t.Fatalf("error should name the unknown field: %v", err)
	}
}

// TestValidSpecFileRuns covers the full -spec path with a good file on
// each engine — guarding against normalize-twice regressions that the
// built-in path (which skips Parse) cannot catch.
func TestValidSpecFileRuns(t *testing.T) {
	for label, raw := range map[string]string{
		"cycle": `{"name":"file-cycle","nodes":8,"stack":{"particles":4},
			"timeline":[{"at":2,"action":"partition","groups":2},{"at":4,"action":"heal"}],
			"metrics_every":5,"stop":{"cycles":10}}`,
		"event": `{"name":"file-event","engine":"event","nodes":4,"stack":{"particles":4},
			"timeline":[{"at":5,"action":"set-link","link":{"min_delay":1,"max_delay":2}}],
			"metrics_every":10,"stop":{"time":20}}`,
	} {
		path := filepath.Join(t.TempDir(), "s.json")
		if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		out, _, err := runCmd(t, "-spec", path, "-reps", "2")
		if err != nil {
			t.Fatalf("%s spec file failed: %v", label, err)
		}
		if strings.Count(out, "\n") < 3 {
			t.Fatalf("%s spec produced almost no metrics:\n%s", label, out)
		}
	}
}

func TestBadFlagsError(t *testing.T) {
	_, _, err := runCmd(t, "-definitely-not-a-flag")
	if !errors.Is(err, errBadFlags) {
		t.Fatalf("bad flag returned %v, want errBadFlags", err)
	}
	_, _, err = runCmd(t) // no -run/-spec/-list
	if !errors.Is(err, errBadFlags) {
		t.Fatalf("missing mode returned %v, want errBadFlags", err)
	}
	_, _, err = runCmd(t, "-run", "baseline", "-format", "xml")
	if err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestShowEmitsRunnableSpec(t *testing.T) {
	for _, name := range []string{"netsplit-heal", "rumor-netsplit", "tman-ring-churn"} {
		out, _, err := runCmd(t, "-show", name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := scenario.Parse([]byte(out)); err != nil {
			t.Fatalf("-show %s output is not a parseable spec: %v\n%s", name, err, out)
		}
	}
}

// TestGoldenDeterminism pins the exact bytes of built-in campaigns — one
// on the cycle engine, two on the event engine: any drift in engine
// scheduling, RNG use, or metric formatting fails here.
func TestGoldenDeterminism(t *testing.T) {
	for _, name := range []string{"baseline", "lossy-wan", "latency-spike"} {
		golden, err := os.ReadFile(filepath.Join("testdata", name+".golden.csv"))
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := runCmd(t, "-run", name, "-reps", "2")
		if err != nil {
			t.Fatal(err)
		}
		if out != string(golden) {
			t.Fatalf("%s campaign drifted from golden file:\n--- got ---\n%s--- want ---\n%s", name, out, golden)
		}
	}
}

// TestWorkerCountInvariance is the acceptance-criteria assertion: the same
// spec + seed yields byte-identical metric output across -workers 1 and
// -workers 8, for a scenario exercising partitions and for an event-driven
// one.
func TestWorkerCountInvariance(t *testing.T) {
	for _, name := range []string{"netsplit-heal", "flash-churn", "lossy-wan"} {
		render := func(workers string) string {
			out, _, err := runCmd(t, "-run", name, "-reps", "2", "-workers", workers)
			if err != nil {
				t.Fatalf("scenario %q workers=%s: %v", name, workers, err)
			}
			return out
		}
		if one, eight := render("1"), render("8"); one != eight {
			t.Fatalf("scenario %q: output differs between -workers 1 and -workers 8", name)
		}
	}
}

// TestRepWorkersInvariance is the campaign-parallelism acceptance
// criterion at the CLI level: a -repworkers 4 campaign over a ported
// protocol emits bytes identical to the sequential -repworkers 1 run.
func TestRepWorkersInvariance(t *testing.T) {
	render := func(repWorkers string) string {
		out, _, err := runCmd(t, "-run", "rumor-netsplit", "-reps", "8", "-repworkers", repWorkers)
		if err != nil {
			t.Fatalf("repworkers=%s: %v", repWorkers, err)
		}
		return out
	}
	if seq, par := render("1"), render("4"); seq != par {
		t.Fatal("output differs between -repworkers 1 and -repworkers 4")
	}
}

func TestOutputFileAndJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.jsonl")
	_, _, err := runCmd(t, "-run", "baseline", "-format", "jsonl", "-o", path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), `{"scenario":"baseline"`) {
		t.Fatalf("jsonl file wrong:\n%s", data)
	}
}

// TestSweepGoldenDeterminism pins the exact bytes of a built-in sweep's
// two outputs — the metric rows and the aggregated summary table — so any
// drift in grid expansion, seeding, scheduling, aggregation math, or
// formatting fails here.
func TestSweepGoldenDeterminism(t *testing.T) {
	sumPath := filepath.Join(t.TempDir(), "cells.csv")
	out, _, err := runCmd(t, "-sweep", "overlay-vs-churn", "-reps", "2", "-summary", sumPath)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := os.ReadFile(filepath.Join("testdata", "overlay-vs-churn.golden.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(rows) {
		t.Fatalf("sweep rows drifted from golden file:\n--- got ---\n%s--- want ---\n%s", out, rows)
	}
	sum, err := os.ReadFile(sumPath)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "overlay-vs-churn.summary.golden.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(sum) != string(golden) {
		t.Fatalf("sweep summary drifted from golden file:\n--- got ---\n%s--- want ---\n%s", sum, golden)
	}
}

// TestSweepWorkersInvariance is the acceptance criterion: rows, summary
// table and comparison report are byte-identical for -sweepworkers 1/2/8.
func TestSweepWorkersInvariance(t *testing.T) {
	render := func(workers string) (string, string, string) {
		sumPath := filepath.Join(t.TempDir(), "cells.csv")
		out, errOut, err := runCmd(t, "-sweep", "protocol-vs-loss", "-reps", "2",
			"-sweepworkers", workers, "-summary", sumPath)
		if err != nil {
			t.Fatalf("sweepworkers=%s: %v", workers, err)
		}
		sum, err := os.ReadFile(sumPath)
		if err != nil {
			t.Fatal(err)
		}
		return out, string(sum), errOut
	}
	rows1, sum1, rep1 := render("1")
	for _, w := range []string{"2", "8"} {
		rows, sum, rep := render(w)
		if rows != rows1 {
			t.Fatalf("rows differ between -sweepworkers 1 and %s", w)
		}
		if sum != sum1 {
			t.Fatalf("summary differs between -sweepworkers 1 and %s", w)
		}
		if rep != rep1 {
			t.Fatalf("report differs between -sweepworkers 1 and %s", w)
		}
	}
	if !strings.Contains(rep1, "== sweep protocol-vs-loss ==") {
		t.Fatalf("comparison report missing:\n%s", rep1)
	}
}

// TestSweepFromFile covers the -sweep <file> path end to end, including
// the jsonl summary format.
func TestSweepFromFile(t *testing.T) {
	dir := t.TempDir()
	spec := `{"name":"file-sweep","base":{"nodes":8,"seed":5,"metrics_every":5,"stop":{"cycles":10}},
		"axes":[{"name":"n","path":"nodes","values":[{"value":8},{"value":12}]}],"reps":2,"threshold":1e18}`
	path := filepath.Join(dir, "sweep.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	sumPath := filepath.Join(dir, "cells.jsonl")
	out, errOut, err := runCmd(t, "-sweep", path, "-format", "jsonl", "-summary", sumPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"scenario":"file-sweep/n=8"`) || !strings.Contains(out, `"scenario":"file-sweep/n=12"`) {
		t.Fatalf("rows missing cell names:\n%s", out)
	}
	sum, err := os.ReadFile(sumPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(sum), `"metric":"to_threshold"`) {
		t.Fatalf("jsonl summary missing to_threshold:\n%s", sum)
	}
	if !strings.Contains(errOut, "file-sweep/n=12") {
		t.Fatalf("report missing cells:\n%s", errOut)
	}
}

// TestSweepRepsDefault: without an explicit -reps the sweep's own reps
// field (4 for overlay-vs-churn) applies.
func TestSweepRepsDefault(t *testing.T) {
	sumPath := filepath.Join(t.TempDir(), "cells.csv")
	if _, _, err := runCmd(t, "-sweep", "overlay-vs-churn", "-o", os.DevNull, "-summary", sumPath); err != nil {
		t.Fatal(err)
	}
	sum, err := os.ReadFile(sumPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(sum), ",4,quality,4,") {
		t.Fatalf("sweep default reps (4) not applied:\n%s", sum)
	}
}

func TestSweepBadUsage(t *testing.T) {
	if _, _, err := runCmd(t, "-sweep", "no-such-sweep"); err == nil ||
		!strings.Contains(err.Error(), "overlay-vs-churn") {
		t.Fatalf("unknown sweep should list built-ins: %v", err)
	}
	if _, _, err := runCmd(t, "-sweep", "overlay-vs-churn", "-run", "baseline"); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("-run with -sweep accepted: %v", err)
	}
	if _, _, err := runCmd(t, "-sweep", "overlay-vs-churn", "-repworkers", "4"); err == nil ||
		!strings.Contains(err.Error(), "-sweepworkers") {
		t.Fatalf("inert -repworkers with -sweep accepted: %v", err)
	}
	if _, _, err := runCmd(t, "-run", "baseline", "-sweepworkers", "4"); err == nil ||
		!strings.Contains(err.Error(), "-repworkers") {
		t.Fatalf("inert -sweepworkers with -run accepted: %v", err)
	}
	if _, _, err := runCmd(t, "-run", "baseline", "-summary", "cells.csv"); err == nil ||
		!strings.Contains(err.Error(), "-summary") {
		t.Fatalf("inert -summary with -run accepted: %v", err)
	}
}

// TestBadNameDoesNotTruncateOutput: a typo'd name (or a bad format) must
// be rejected before the -o file is opened — an existing results file
// survives the failed invocation.
func TestBadNameDoesNotTruncateOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.csv")
	if err := os.WriteFile(path, []byte("precious\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-run", "baselnie", "-o", path},
		{"-sweep", "no-such", "-o", path},
		{"-run", "baseline", "-format", "xml", "-o", path},
		{"-spec", filepath.Join("testdata", "bad.json"), "-o", path},
	} {
		if _, _, err := runCmd(t, args...); err == nil {
			t.Fatalf("%v: accepted", args)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != "precious\n" {
			t.Fatalf("%v: failed invocation truncated the output file", args)
		}
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name":"x","axes":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := runCmd(t, "-sweep", bad); err == nil ||
		!strings.Contains(err.Error(), "at least one axis") {
		t.Fatalf("empty-axes sweep accepted: %v", err)
	}
}

// TestShowSweep: -show prints a built-in sweep as JSON that ParseSweep
// round-trips.
func TestShowSweep(t *testing.T) {
	out, _, err := runCmd(t, "-show", "protocol-vs-loss")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scenario.ParseSweep([]byte(out)); err != nil {
		t.Fatalf("-show sweep output is not a parseable sweep: %v\n%s", err, out)
	}
}

func TestSeedOverrideChangesOutput(t *testing.T) {
	a, _, err := runCmd(t, "-run", "baseline", "-seed", "100")
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := runCmd(t, "-run", "baseline", "-seed", "200")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("different -seed values produced identical output")
	}
}

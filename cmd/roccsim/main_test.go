package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"rocc/internal/cli/clitest"
	"rocc/internal/obs"
	"rocc/internal/trace"
)

// TestMain lets the flag-contract tests run this test binary as the
// roccsim command itself.
func TestMain(m *testing.M) { clitest.Main(m, main) }

// roccsim runs the command with args and returns its stdout, stderr and
// exit code.
var roccsim = clitest.Run

// run is roccsim on a small seeded BF(16) scenario, failing the test on
// a non-zero exit.
func run(t *testing.T, args ...string) []byte {
	t.Helper()
	base := []string{"-nodes", "4", "-duration", "1", "-seed", "1", "-sp", "8", "-policy", "bf:16"}
	stdout, stderr, code := roccsim(t, append(base, args...)...)
	if code != 0 {
		t.Fatalf("roccsim %v: exit %d: %s", args, code, stderr)
	}
	return stdout
}

// TestTraceFlagWritesChromeJSON: a .json -trace path gets a Chrome trace
// the validator accepts.
func TestTraceFlagWritesChromeJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	run(t, "-trace", path)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n, err := obs.ValidateChrome(f)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1000 {
		t.Fatalf("suspiciously small trace: %d events", n)
	}
}

// TestTraceFlagWritesText: any other -trace path gets AIX-like text
// records that the trace reader parses.
func TestTraceFlagWritesText(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.txt")
	run(t, "-trace", path)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := trace.ReadText(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no records in the text trace")
	}
}

// TestStagesLeavesResultsUnchanged: -stages only adds LatencyStages. Its
// JSON minus that field equals the observed run's plain JSON (-trace
// also selects the observed single run), so neither provenance nor the
// trace sink perturbs the simulation.
func TestStagesLeavesResultsUnchanged(t *testing.T) {
	dir := t.TempDir()
	jsonOut := func(name string, args ...string) []byte {
		path := filepath.Join(dir, name)
		run(t, append(args, "-json", "-out", path)...)
		out, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	plain := jsonOut("plain.json", "-trace", filepath.Join(dir, "run.json"))
	staged := jsonOut("staged.json", "-stages")

	var doc map[string]any
	if err := json.Unmarshal(staged, &doc); err != nil {
		t.Fatal(err)
	}
	results := doc["results"].([]any)
	for _, r := range results {
		res := r.(map[string]any)
		if _, ok := res["LatencyStages"]; !ok {
			t.Fatal("-stages JSON has no LatencyStages")
		}
		delete(res, "LatencyStages")
	}
	var want map[string]any
	if err := json.Unmarshal(plain, &want); err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(doc)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(got, wantJSON) {
		t.Fatalf("-stages changed the results:\n%s\nvs\n%s", got, wantJSON)
	}
}

// TestRejectsUnknownValues: an unknown architecture, calendar,
// forwarding configuration or log level is a usage error: exit 2, as the
// flag package gives, with a message on stderr.
func TestRejectsUnknownValues(t *testing.T) {
	for _, args := range [][]string{
		{"-arch", "vax"},
		{"-calendar", "sundial"},
		{"-calendar", "list"},
		{"-forward", "ring"},
		{"-log", "-", "-loglevel", "loud"},
	} {
		stdout, stderr, code := roccsim(t, append(args, "-duration", "0.1")...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stdout %q)", args, code, stdout)
		}
		if len(stderr) == 0 {
			t.Errorf("%v: no error message", args)
		}
	}
}

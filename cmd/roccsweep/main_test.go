package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"rocc/internal/cli/clitest"
	"rocc/internal/obs"
)

// TestMain lets the flag-contract tests run this test binary as the
// roccsweep command itself.
func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestRejectsBadFlagValues: a malformed -chaos spec and a negative seed
// are usage errors: exit 2 with a message on stderr.
func TestRejectsBadFlagValues(t *testing.T) {
	for _, args := range [][]string{{"-chaos", "bogus"}, {"-seed", "-1"}} {
		if _, stderr, code := clitest.Run(t, append(args, "-duration", "0.1")...); code != 2 || len(stderr) == 0 {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 with a message", args, code, stderr)
		}
	}
}

// TestTraceFlag: -trace writes a timeline the Chrome validator accepts,
// and tracing leaves the -out results byte-identical.
func TestTraceFlag(t *testing.T) {
	dir := t.TempDir()
	sweep := func(out string, extra ...string) []byte {
		t.Helper()
		args := append([]string{"-grid", "smoke", "-reps", "1", "-duration", "0.1", "-parallel", "2",
			"-out", filepath.Join(dir, out)}, extra...)
		if _, stderr, code := clitest.Run(t, args...); code != 0 {
			t.Fatalf("roccsweep %v: exit %d: %s", args, code, stderr)
		}
		b, err := os.ReadFile(filepath.Join(dir, out))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(sweep("traced.json", "-trace", filepath.Join(dir, "t.json")), sweep("plain.json")) {
		t.Fatal("-trace changed the -out results")
	}
	f, err := os.Open(filepath.Join(dir, "t.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := obs.ValidateChrome(f); err != nil {
		t.Fatal(err)
	}
}

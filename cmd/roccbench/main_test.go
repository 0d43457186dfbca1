package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the flag-contract tests run this test binary as the
// roccbench command itself.
func TestMain(m *testing.M) {
	if os.Getenv("ROCCBENCH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// roccbench runs the command with args and returns its stdout, stderr
// and exit code.
func roccbench(t *testing.T, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ROCCBENCH_RUN_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.Bytes(), errb.Bytes(), code
}

// TestOutFlagWritesTextExperiments pins -out for text experiments: the
// rendered output goes to the named file, byte-identical to what stdout
// gets without -out, and nothing is printed on stdout.
func TestOutFlagWritesTextExperiments(t *testing.T) {
	for _, exp := range []string{"fig9", "fig9,fig10"} {
		t.Run(exp, func(t *testing.T) {
			want, _, code := roccbench(t, "-exp", exp)
			if code != 0 || len(want) == 0 {
				t.Fatalf("stdout run: exit %d, %d bytes", code, len(want))
			}
			path := filepath.Join(t.TempDir(), "out.txt")
			stdout, stderr, code := roccbench(t, "-exp", exp, "-out", path)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			if len(stdout) != 0 {
				t.Fatalf("stdout not empty with -out: %q", stdout)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("-out file differs from stdout output:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// TestOutFlagUnknownExperiment checks that an unknown id exits 2 before
// the output file is created.
func TestOutFlagUnknownExperiment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	stdout, _, code := roccbench(t, "-exp", "fig9,no-such-exp", "-out", path)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if len(stdout) != 0 {
		t.Fatalf("stdout not empty: %q", stdout)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("output file created for an unknown experiment (stat err %v)", err)
	}
}

// TestRetiredFlagsAndValuesExit2 pins the usage errors for the removed
// perf-record mode, the removed list calendar and the removed "bench" id
// alias: each exits 2 before the -out file is created.
func TestRetiredFlagsAndValuesExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "fig17", "-json"},
		{"-compare", "a.json", "-baseline", "b.json"},
		{"-exp", "fig17", "-calendar", "list"},
		{"-exp", "bench"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "out.txt")
			stdout, _, code := roccbench(t, append(args, "-out", path)...)
			if code != 2 {
				t.Fatalf("exit %d, want 2", code)
			}
			if len(stdout) != 0 {
				t.Fatalf("stdout not empty: %q", stdout)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("output file created (stat err %v)", err)
			}
		})
	}
}

// TestCalendarFlagOutputIdentical checks that -calendar selects an
// implementation, not a result: every live calendar prints the same bytes.
func TestCalendarFlagOutputIdentical(t *testing.T) {
	var want []byte
	for _, cal := range []string{"auto", "heap", "bucket"} {
		got, stderr, code := roccbench(t, "-exp", "fig17", "-duration", "0.5", "-reps", "2", "-calendar", cal)
		if code != 0 || len(got) == 0 {
			t.Fatalf("-calendar %s: exit %d, %d bytes: %s", cal, code, len(got), stderr)
		}
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("-calendar %s output differs from -calendar auto:\n%s\nvs\n%s", cal, got, want)
		}
	}
}

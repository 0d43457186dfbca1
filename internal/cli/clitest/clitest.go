// Package clitest runs a command's own test binary as the command, for
// flag-contract tests: the package's TestMain hands over to Main, and a
// test calls Run with the command-line arguments.
package clitest

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"testing"
)

// runMainEnv marks a test binary started by Run.
const runMainEnv = "ROCC_CLITEST_RUN_MAIN"

// Main runs the command's main instead of the tests when Run started
// this binary, and the tests otherwise.
func Main(m *testing.M, main func()) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Run starts the test binary as the command with args and returns its
// stdout, stderr and exit code.
func Run(t testing.TB, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), errb.Bytes(), code
}

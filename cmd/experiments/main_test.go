package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"meshalloc/internal/core"
)

// render runs one experiment in process and returns the bytes the CLI
// would print for it — the same Render path main uses.
func render(t *testing.T, id string, opt core.Options) []byte {
	t.Helper()
	fig, err := runExperiment(id, opt)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var buf bytes.Buffer
	if err := fig.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelFlagDoesNotChangeOutput is the CLI determinism smoke
// test: `-reps 3 -parallel 2` must print exactly the tables that
// `-reps 3 -parallel 1` prints, for a figure grid and for the
// ext-steady extension (which consumes -parallel through the same
// sweep fabric).
func TestParallelFlagDoesNotChangeOutput(t *testing.T) {
	for _, id := range []string{"7", "ext-steady"} {
		opt := core.Options{Jobs: 60, TimeScale: 0.01, Seed: 1,
			Loads: []float64{0.4}, Replications: 3, Parallelism: 1}
		seq := render(t, id, opt)
		opt.Parallelism = 2
		if par := render(t, id, opt); !bytes.Equal(seq, par) {
			t.Fatalf("%s: -parallel 2 output differs from -parallel 1:\n--- parallel 1 ---\n%s\n--- parallel 2 ---\n%s",
				id, seq, par)
		}
	}
}

// TestRunExperimentDispatch checks both dispatch arms resolve.
func TestRunExperimentDispatch(t *testing.T) {
	if _, err := runExperiment("nope", core.Options{}); err == nil {
		t.Fatal("unknown figure id must error")
	}
	if _, err := runExperiment("ext-nope", core.Options{}); err == nil {
		t.Fatal("unknown extension id must error")
	}
}

// TestMain runs main instead of the tests when MESHALLOC_RUN_MAIN is set,
// so a test can run the command in a child process and read its exit
// status.
func TestMain(m *testing.M) {
	if os.Getenv("MESHALLOC_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args in a child process and returns its
// exit status and standard error.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MESHALLOC_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// TestRejectsNegativeSizes: a negative -jobs or -reps exits with status
// 1 and a usage message, never a panic (status 2).
func TestRejectsNegativeSizes(t *testing.T) {
	for _, args := range [][]string{
		{"-jobs", "-5", "-fig", "7"},
		{"-reps", "-2", "-fig", "7"},
		{"-jobs", "-5", "-check"},
	} {
		code, stderr := runMain(t, args...)
		if code != 1 || !strings.Contains(stderr, "must be >= 0") {
			t.Errorf("experiments %v: exit %d, stderr %q; want exit 1 and a usage message", args, code, stderr)
		}
	}
}

package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main instead of the tests when MESHALLOC_RUN_MAIN is set,
// so a test can run the command in a child process and observe its exit
// status.
func TestMain(m *testing.M) {
	if os.Getenv("MESHALLOC_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args in a child process and returns its
// exit status, standard output and standard error.
func runMain(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MESHALLOC_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// TestRejectsBadMeshSpecs: a -mesh value that is not a buildable 2-D
// shape exits with status 1 and a usage message, and renders nothing.
// Trailing junk, a third extent and an extent too large for a grid are
// all rejected. So is 4097x1 for Hilbert and Z-order, which would walk
// an 8192x8192 square (2^26 cells, above the curve package's 2^24).
func TestRejectsBadMeshSpecs(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-mesh", "16x22junk"}, "bad mesh spec"},
		{[]string{"-mesh", "4x4x4"}, "bad mesh spec"},
		{[]string{"-mesh", "100000x100000"}, "bad mesh spec"},
		{[]string{"-mesh", "4097x1", "-curve", "hilbert"}, "2^24"},
		{[]string{"-mesh", "4097x1", "-curve", "zorder"}, "2^24"},
	} {
		code, stdout, stderr := runMain(t, tc.args...)
		if code != 1 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("curveviz %v: exit %d, stdout %d bytes, stderr %q; want exit 1, no output and %q",
				tc.args, code, len(stdout), stderr, tc.want)
		}
	}
	code, stdout, stderr := runMain(t, "-mesh", "4x3")
	if code != 0 || !strings.HasPrefix(stdout, "hilbert on 4x3:") {
		t.Errorf("curveviz -mesh 4x3: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"meshalloc/internal/fault"
	"meshalloc/internal/sim"
	"meshalloc/internal/snap"
	"meshalloc/internal/trace"
)

// checkpointCfg is a small faulty EASY run, so a checkpoint carries
// fault clocks, retry bookkeeping and the running-set mirror.
func checkpointCfg() sim.Config {
	return sim.Config{
		Dims:  []int{8, 8},
		Alloc: "hilbert/bestfit", Pattern: "nbody", Scheduler: "easy",
		Load: 0.6, TimeScale: 0.02, Seed: 1,
		Faults: fault.Config{
			MTBF: fault.Dist{Kind: fault.DistExponential, Mean: 3e5},
			MTTR: fault.Dist{Kind: fault.DistExponential, Mean: 1.5e4},
		},
		Retry: fault.Retry{Kind: fault.RetryBackoff, Base: 60, Cap: 3600, MaxAttempts: 4},
	}
}

// TestCheckpointResumesToUninterruptedResult checkpoints a closed and an
// open run once, halfway through, then resumes the file: the resumed
// result must equal the uninterrupted run's, and no staging file may be
// left behind.
func TestCheckpointResumesToUninterruptedResult(t *testing.T) {
	const maxSize, seed, jobs, arrival = 64, 1, 300, "poisson:200"
	cases := []struct {
		name    string
		arrival string
		run     func(ck ckptSpec) (*sim.Result, *sim.Engine, error)
	}{
		{"closed", "", func(ck ckptSpec) (*sim.Result, *sim.Engine, error) {
			tr := trace.NewSDSC(trace.SDSCConfig{Jobs: jobs, MaxSize: maxSize, Seed: seed})
			return runClosed(checkpointCfg(), tr, false, ck)
		}},
		{"open", arrival, func(ck ckptSpec) (*sim.Result, *sim.Engine, error) {
			return runOpen(checkpointCfg(), arrival, maxSize, seed, jobs, 0, false, ck)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, e, err := tc.run(ckptSpec{})
			if err != nil {
				t.Fatal(err)
			}
			events := e.CoreStats().Events
			if events < 100 {
				t.Fatalf("run too short to checkpoint mid-way: %d events", events)
			}

			path := filepath.Join(t.TempDir(), "ck.snap")
			// One checkpoint, at just past half the run's events.
			if _, _, err := tc.run(ckptSpec{path: path, every: events/2 + 1, jobs: jobs}); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("staging file left behind: stat err %v", err)
			}
			got, _, err := runResume(checkpointCfg(), path, tc.arrival, maxSize, seed, jobs, 0, false, ckptSpec{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("resumed result differs from the uninterrupted run:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestCheckpointFilesArePinned pins the SHA-256 of the checkpoint file
// a closed and an open run leave behind. Each run takes several
// checkpoints, so the file is the last of them. The pins cover the
// whole file: the outer container, the engine container inside it,
// for the open run the arrival source's state, and the run's -jobs and
// -duration. They were re-recorded when the engine container moved to
// version 4, which stores no state restore can derive.
func TestCheckpointFilesArePinned(t *testing.T) {
	const maxSize, seed, jobs, arrival = 64, 1, 300, "poisson:200"
	cases := []struct {
		name string
		run  func(ck ckptSpec) (*sim.Result, *sim.Engine, error)
		want string
	}{
		{"closed", func(ck ckptSpec) (*sim.Result, *sim.Engine, error) {
			tr := trace.NewSDSC(trace.SDSCConfig{Jobs: jobs, MaxSize: maxSize, Seed: seed})
			return runClosed(checkpointCfg(), tr, false, ck)
		}, "8be8e2e00cfd91610c203289659334b4d5f3ccab9ce6354c492b43532b621701"},
		{"open", func(ck ckptSpec) (*sim.Result, *sim.Engine, error) {
			// main discards records under -arrival.
			cfg := checkpointCfg()
			cfg.KeepRecords = sim.Discard
			return runOpen(cfg, arrival, maxSize, seed, jobs, 0, false, ck)
		}, "83484f1e601cb61f3d9997fbb0a48ecf9a5f4765749f9ff83d67e4fe0a4f33e7"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ck.snap")
			_, e, err := tc.run(ckptSpec{path: path, every: 400, jobs: jobs})
			if err != nil {
				t.Fatal(err)
			}
			if n := e.CoreStats().Events; n < 3*400 {
				t.Fatalf("run took %d events, too few for several checkpoints", n)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != tc.want {
				t.Errorf("checkpoint file (%d B) hashes to %s, pinned %s", len(data), got, tc.want)
			}
		})
	}
}

// TestResumeRefusesChangedRunFlags checkpoints a closed and an open run
// and resumes each under its own flags, which must finish, and under
// another -jobs or -duration, which must exit 1 naming the flag instead
// of finishing the checkpointed run under the flags it was given.
func TestResumeRefusesChangedRunFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"closed", []string{"-mesh", "8x8", "-pattern", "nbody", "-jobs", "300"}},
		{"open", []string{"-mesh", "8x8", "-pattern", "nbody", "-jobs", "300", "-arrival", "poisson:200"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ck.snap")
			if code, stderr := runMain(t, append(tc.args, "-checkpoint", path, "-checkpoint-every", "400")...); code != 0 {
				t.Fatalf("checkpointed run: exit %d, stderr %q", code, stderr)
			}
			resume := append([]string{"-resume", path}, tc.args...)
			if code, stderr := runMain(t, resume...); code != 0 {
				t.Fatalf("resume under the original flags: exit %d, stderr %q", code, stderr)
			}
			for _, changed := range [][]string{
				{"-jobs", "200"}, {"-jobs", "500"}, {"-duration", "1e6"},
			} {
				code, stderr := runMain(t, append(resume, changed...)...)
				if code != 1 || !strings.Contains(stderr, changed[0]) {
					t.Errorf("resume with %v: exit %d, stderr %q; want exit 1 naming %s", changed, code, stderr, changed[0])
				}
			}
		})
	}
}

// TestResumeRefusesUnrecordedRunFlags: a checkpoint in the layout that
// recorded neither -jobs nor -duration, the engine container and the
// source's state alone, fails to resume instead of running under
// whatever flags the resume passes.
func TestResumeRefusesUnrecordedRunFlags(t *testing.T) {
	const maxSize, seed, jobs, arrival = 64, 1, 300, "poisson:200"
	for _, open := range []bool{false, true} {
		e, err := sim.NewEngine(checkpointCfg())
		if err != nil {
			t.Fatal(err)
		}
		w := snap.NewWriter(nil)
		if err := w.BytesFrom(e); err != nil {
			t.Fatal(err)
		}
		w.Bool(open)
		spec := ""
		if open {
			spec = arrival
			arr, err := trace.ParseArrival(spec, maxSize, seed)
			if err != nil {
				t.Fatal(err)
			}
			trace.Limit(arr, jobs).(snap.Codec).AppendState(w)
		}
		path := filepath.Join(t.TempDir(), "ck.snap")
		if err := os.WriteFile(path, w.Finish(), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err = runResume(checkpointCfg(), path, spec, maxSize, seed, jobs, 0, false, ckptSpec{})
		if err == nil || !strings.Contains(err.Error(), "records no -jobs") {
			t.Errorf("open=%v: resuming a checkpoint without run flags: %v", open, err)
		}
	}
}

// TestCheckpointWriteFailures: a checkpoint that cannot be staged or
// renamed into place returns an error and leaves no staging file.
func TestCheckpointWriteFailures(t *testing.T) {
	e, err := sim.NewEngine(checkpointCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range trace.NewSDSC(trace.SDSCConfig{Jobs: 50, MaxSize: 64, Seed: 1}).Jobs {
		if err := e.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		e.Step()
	}
	dir := t.TempDir()

	missing := filepath.Join(dir, "missing", "ck.snap")
	if _, err := writeCheckpoint(ckptSpec{path: missing}, nil, e, nil); err == nil {
		t.Fatal("checkpoint into a missing directory succeeded")
	}

	// A directory where the checkpoint should go makes the rename fail
	// after the staging file is written and synced.
	occupied := filepath.Join(dir, "ck.snap")
	if err := os.Mkdir(occupied, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(occupied, "keep"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := writeCheckpoint(ckptSpec{path: occupied}, nil, e, nil); err == nil {
		t.Fatal("checkpoint over a non-empty directory succeeded")
	}
	if _, err := os.Stat(occupied + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed rename left its staging file: stat err %v", err)
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

// TestRejectsBadRunParameters: a job count below 1 or a rate that is not
// positive exits with status 1 and a message naming it, never a panic
// (status 2) or a run that reports negative times. So does a run that
// deadlocks, whether or not -duration stopped its arrival stream.
func TestRejectsBadRunParameters(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-jobs", "0"}, "-jobs must be >= 1"},
		{[]string{"-jobs", "-5"}, "-jobs must be >= 1"},
		{[]string{"-jobs", "20", "-timescale", "-1"}, "TimeScale must be positive"},
		{[]string{"-jobs", "20", "-load", "-1"}, "Load must be positive"},
		// sim.Config would read these zeros as its defaults of 1.
		{[]string{"-jobs", "20", "-timescale", "0"}, "-timescale: TimeScale must be positive"},
		{[]string{"-jobs", "20", "-load", "0"}, "-load: Load must be positive"},
		// Permanent failures strand the queue behind down nodes.
		{[]string{"-mesh", "4x4", "-alloc", "hilbert", "-arrival", "poisson:900", "-jobs", "300",
			"-duration", "100000", "-mtbf", "100000"}, "sim: deadlock with"},
	} {
		code, stderr := runMain(t, tc.args...)
		if code != 1 || !strings.Contains(stderr, tc.want) {
			t.Errorf("simrun %v: exit %d, stderr %q; want exit 1 and %q", tc.args, code, stderr, tc.want)
		}
	}
}

package sim

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"meshalloc/internal/alloc"
	"meshalloc/internal/snap"
	"meshalloc/internal/stats"
	"meshalloc/internal/trace"
)

// resumeCases are the configurations the crash-resume equivalence suite
// runs: each exercises a different slice of snapshot state — the
// schedule-driven patterns, the engine RNG (random pattern), allocator
// state (NextFit cursor, the random allocator's RNG state), the
// EASY scheduler's running index, active fault injection with
// retry/backoff bookkeeping and per-node failure clocks, and the mixed
// pattern, whose restore rebuilds each generator from the name its
// state carries.
var resumeCases = []struct {
	name string
	cfg  Config
	tr   func() *trace.Trace
}{
	{
		name: "hilbert-alltoall",
		cfg: Config{MeshW: 16, MeshH: 22, Alloc: "hilbert/bestfit", Pattern: "alltoall",
			Load: 0.2, TimeScale: 0.01, Seed: 1},
		tr: func() *trace.Trace {
			return trace.NewSDSC(trace.SDSCConfig{Jobs: 120, MaxSize: 352, Seed: 1}).FilterMaxSize(352)
		},
	},
	{
		name: "random-pattern-random-alloc",
		cfg: Config{MeshW: 16, MeshH: 16, Alloc: "random", Pattern: "random",
			Load: 0.4, TimeScale: 0.01, Seed: 7},
		tr: func() *trace.Trace {
			return trace.NewSDSC(trace.SDSCConfig{Jobs: 120, MaxSize: 256, Seed: 2}).FilterMaxSize(256)
		},
	},
	{
		name: "easy-nextfit",
		cfg: Config{MeshW: 16, MeshH: 16, Alloc: "hilbert/nextfit", Pattern: "nbody",
			Load: 0.4, TimeScale: 0.01, Seed: 1, Scheduler: "easy"},
		tr: func() *trace.Trace {
			return trace.NewSDSC(trace.SDSCConfig{Jobs: 120, MaxSize: 256, Seed: 3}).FilterMaxSize(256)
		},
	},
	{
		name: "faulty-mc1x1",
		cfg:  faultyCfg("mc1x1"),
		tr:   func() *trace.Trace { return faultTrace(150, 32) },
	},
	{
		name: "mixed-pattern",
		cfg: Config{MeshW: 16, MeshH: 16, Alloc: "hilbert/bestfit", Pattern: "mixed",
			Load: 0.4, TimeScale: 0.01, Seed: 7},
		tr: func() *trace.Trace {
			return trace.NewSDSC(trace.SDSCConfig{Jobs: 120, MaxSize: 256, Seed: 4}).FilterMaxSize(256)
		},
	},
}

// snapshotAt submits the whole trace, steps exactly n events, and
// returns the engine's snapshot.
func snapshotAt(t *testing.T, cfg Config, tr *trace.Trace, n int) []byte {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range tr.Jobs {
		if err := e.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if !e.Step() {
			t.Fatalf("engine exhausted after %d of %d events", i, n)
		}
	}
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// countEvents runs cfg over tr to completion and returns the total
// number of Step calls that processed an event.
func countEvents(t *testing.T, cfg Config, tr *trace.Trace) int {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range tr.Jobs {
		if err := e.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for e.Step() {
		n++
	}
	return n
}

// TestSnapshotResumeGoldenEquivalence is the crash-safety contract:
// snapshot at an interior event count, throw the engine away, restore
// from the bytes, run to completion — and require the bit-identical
// golden digest of the run that never stopped. Three interior points ×
// every resume case, including active fault injection, and each
// snapshot is resumed under every engine variant: the restored
// scheduler state must pass the auditor after every event and must not
// depend on the restored head-blocked watermark.
func TestSnapshotResumeGoldenEquivalence(t *testing.T) {
	for _, tc := range resumeCases {
		cfg := tc.cfg
		tr := tc.tr()
		res, err := Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		want := goldenDigest(res)
		total := countEvents(t, cfg, tr)
		for _, n := range []int{total / 4, total / 2, 3 * total / 4} {
			t.Run(fmt.Sprintf("%s/at=%d", tc.name, n), func(t *testing.T) {
				blob := snapshotAt(t, cfg, tr, n)
				for _, v := range engineVariants {
					t.Run(v.name, func(t *testing.T) {
						e, err := RestoreEngine(bytes.NewReader(blob), cfg)
						if err != nil {
							t.Fatal(err)
						}
						v.hook(e)
						e.Drain()
						if e.Deadlocked() {
							t.Fatal("restored run deadlocked")
						}
						if err := e.Audit(); err != nil {
							t.Fatalf("post-drain audit: %v", err)
						}
						if got := goldenDigest(e.Result()); got != want {
							t.Fatalf("resumed digest %s, want %s (resume is not bit-identical)", got, want)
						}
					})
				}
			})
		}
	}
}

// TestSnapshotResumeOpenSystem covers the RunSource path: checkpoint
// mid-stream via the SetCheckpoint hook (including the held-job window
// while the clock advances toward a pulled arrival), restore engine and
// source, and require the streamed records to match the uninterrupted
// run record for record.
func TestSnapshotResumeOpenSystem(t *testing.T) {
	cfg := Config{MeshW: 8, MeshH: 8, Alloc: "hilbert/bestfit", Pattern: "nbody",
		TimeScale: 0.01, Seed: 5, KeepRecords: Discard, KeepNodes: Discard}
	const jobs = 200
	mkSource := func() trace.Source {
		return trace.Limit(trace.NewPoisson(40, 32, 5), jobs)
	}
	collect := func(e *Engine) *[]JobRecord {
		out := &[]JobRecord{}
		e.Observe(func(r JobRecord) { *out = append(*out, r) })
		return out
	}

	// Uninterrupted reference.
	ref, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refRecs := collect(ref)
	if err := ref.RunSource(mkSource(), 0); err != nil {
		t.Fatal(err)
	}

	// Checkpointed run: snapshot engine + source every 512 events, stop
	// the run by abandoning it after enough checkpoints have fired.
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	collect(e)
	src := mkSource()
	var blob, srcBlob bytes.Buffer
	ckpts := 0
	e.SetCheckpoint(512, func() {
		srcBlob.Reset()
		if err := trace.SnapshotSource(&srcBlob, src); err != nil {
			t.Fatal(err)
		}
		blob.Reset()
		if err := e.Snapshot(&blob); err != nil {
			t.Fatal(err)
		}
		ckpts++
	})
	if err := e.RunSource(src, 0); err != nil {
		t.Fatal(err)
	}
	if ckpts == 0 {
		t.Fatal("no checkpoint fired; lower the interval")
	}

	// Resume from the last checkpoint and finish.
	e2, err := RestoreEngine(bytes.NewReader(blob.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := collect(e2)
	src2 := mkSource()
	if err := trace.RestoreSource(bytes.NewReader(srcBlob.Bytes()), src2); err != nil {
		t.Fatal(err)
	}
	if err := e2.RunSource(src2, 0); err != nil {
		t.Fatal(err)
	}

	// The resumed run must emit exactly the reference records it had not
	// yet emitted at checkpoint time.
	all := *refRecs
	got := *recs
	if len(got) > len(all) {
		t.Fatalf("resumed run emitted %d records, reference %d", len(got), len(all))
	}
	tail := all[len(all)-len(got):]
	for i := range got {
		if fmt.Sprintf("%+v", got[i]) != fmt.Sprintf("%+v", tail[i]) {
			t.Fatalf("record %d diverged:\n  resumed %+v\n  reference %+v", i, got[i], tail[i])
		}
	}
	if got, want := goldenDigest(e2.Result()), goldenDigest(ref.Result()); got != want {
		t.Fatalf("resumed aggregate digest %s, want %s", got, want)
	}
}

// TestMixedResumeCaseHoldsEveryGenerator: the mixed resume case is cut
// where its rows hold a generator of every name a mixed job's state can
// carry, the four patterns it draws from and "single" for a one-rank
// job, so its resumes and its snapshot pin rebuild each kind.
func TestMixedResumeCaseHoldsEveryGenerator(t *testing.T) {
	tc := resumeCases[len(resumeCases)-1]
	if tc.cfg.Pattern != "mixed" {
		t.Fatalf("the last resume case runs %q, want mixed", tc.cfg.Pattern)
	}
	tr := tc.tr()
	e, _ := stepAndSnapshot(t, tc.cfg, tr, countEvents(t, tc.cfg, tr)/2)
	live := map[string]int{}
	for h := range e.store.rows {
		row := &e.store.rows[h]
		if !row.inUse || row.dead {
			continue
		}
		w := snap.NewWriter(nil)
		row.gen.AppendState(w)
		r, err := snap.NewReader(bytes.NewReader(w.Finish()))
		if err != nil {
			t.Fatal(err)
		}
		live[r.String()]++
	}
	for _, name := range []string{"alltoall", "nbody", "random", "ring", "single"} {
		if live[name] == 0 {
			t.Errorf("no live %q generator halfway: %v", name, live)
		}
	}
}

// TestRestoreConfigMismatch: restoring under a semantically different
// config is refused with ErrConfigMismatch, while the outcome-neutral
// AuditEvery may differ freely.
func TestRestoreConfigMismatch(t *testing.T) {
	tc := resumeCases[0]
	tr := tc.tr()
	blob := snapshotAt(t, tc.cfg, tr, 50)

	bad := tc.cfg
	bad.Seed = 99
	if _, err := RestoreEngine(bytes.NewReader(blob), bad); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("seed change: got %v, want ErrConfigMismatch", err)
	}
	bad = tc.cfg
	bad.Alloc = "mc1x1"
	if _, err := RestoreEngine(bytes.NewReader(blob), bad); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("alloc change: got %v, want ErrConfigMismatch", err)
	}
	ok := tc.cfg
	ok.AuditEvery = 10
	if _, err := RestoreEngine(bytes.NewReader(blob), ok); err != nil {
		t.Fatalf("AuditEvery change rejected: %v", err)
	}
}

// TestRestoreRejectsDamage: truncations and bit flips anywhere in the
// blob are rejected with a typed snap error — never a panic, never a
// silently-wrong engine.
func TestRestoreRejectsDamage(t *testing.T) {
	tc := resumeCases[3] // faulty case: every snapshot section populated
	tr := tc.tr()
	blob := snapshotAt(t, tc.cfg, tr, 200)

	if _, err := RestoreEngine(bytes.NewReader(blob), tc.cfg); err != nil {
		t.Fatalf("pristine blob rejected: %v", err)
	}
	for _, cut := range []int{0, 1, 7, 16, len(blob) / 2, len(blob) - 1} {
		if _, err := RestoreEngine(bytes.NewReader(blob[:cut]), tc.cfg); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	for _, pos := range []int{0, 4, 8, 20, len(blob) / 3, len(blob) - 5} {
		dam := append([]byte(nil), blob...)
		dam[pos] ^= 0x10
		if _, err := RestoreEngine(bytes.NewReader(dam), tc.cfg); err == nil {
			t.Fatalf("bit flip at %d accepted", pos)
		}
	}
}

// FuzzRestoreEngine feeds arbitrary bytes — seeded with a valid
// snapshot plus truncated and bit-flipped variants — to RestoreEngine.
// The contract under fuzzing: corrupt input yields a typed error, never
// a panic, and any input accepted as valid yields an engine whose
// invariants audit clean and that can step without crashing.
func FuzzRestoreEngine(f *testing.F) {
	cfg := Config{MeshW: 8, MeshH: 8, Alloc: "mc1x1", Pattern: "nbody",
		Load: 0.4, TimeScale: 0.01, Seed: 1}
	cfgF := faultyCfg("mc1x1")
	tr := faultTrace(60, 32)
	seed := func(c Config, n int) []byte {
		e, err := NewEngine(c)
		if err != nil {
			f.Fatal(err)
		}
		for _, j := range tr.Jobs {
			if err := e.Submit(j); err != nil {
				f.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			e.Step()
		}
		var buf bytes.Buffer
		if err := e.Snapshot(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	// The random allocator and pattern put RNG states in the allocator's
	// codec and the engine's.
	cfgR := Config{MeshW: 8, MeshH: 8, Alloc: "random", Pattern: "random",
		Load: 0.4, TimeScale: 0.01, Seed: 1}
	valid := seed(cfg, 100)
	validF := seed(cfgF, 200)
	f.Add(valid)
	f.Add(validF)
	f.Add(valid[:len(valid)/2])
	f.Add(validF[:17])
	for _, pos := range []int{0, 5, 9, 16, 40, len(valid) / 2} {
		dam := append([]byte(nil), valid...)
		dam[pos] ^= 0x08
		f.Add(dam)
	}
	f.Add(seed(cfgR, 100))
	// A live random job's held-back message raised to rank 2^20.
	e, blob := stepAndSnapshot(f, cfgR, tr, 100)
	binary.LittleEndian.PutUint64(blob[heldOffset(f, e, blob):], 1<<20)
	reframe(blob)
	f.Add(blob)
	// A live row that has sent one message past its quota.
	e, blob = stepAndSnapshot(f, cfg, tr, 100)
	off, quota := rowTailOffset(f, e, blob)
	binary.LittleEndian.PutUint64(blob[off:], uint64(quota+1))
	reframe(blob)
	f.Add(blob)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range []Config{cfg, cfgF, cfgR} {
			e, err := RestoreEngine(bytes.NewReader(data), c)
			if err != nil {
				if e != nil {
					t.Fatal("error with non-nil engine")
				}
				continue
			}
			// Accepted input: the engine must be fully usable.
			if err := e.Audit(); err != nil {
				t.Fatalf("restored engine fails audit: %v", err)
			}
			for i := 0; i < 50 && e.Step(); i++ {
			}
		}
	})
}

// failWriter fails every write.
type failWriter struct{}

var errWriteFailed = errors.New("write failed")

func (failWriter) Write([]byte) (int, error) { return 0, errWriteFailed }

// TestSnapshotIntoEveryWriter takes a mid-run snapshot of every resume
// case into each kind of destination the in-place path treats
// differently: a buffer with no room, one with room, one holding a
// prefix, a bufio.Writer smaller than the payload, a plain io.Writer,
// and AppendBinary behind a prefix. Each destination is written twice,
// without and then with the previous payload's size hint. Every write
// must give the same container bytes after any prefix, which must be
// left as it was, and a failing writer's error must come back.
func TestSnapshotIntoEveryWriter(t *testing.T) {
	const prefix = "prefix"
	for _, rc := range resumeCases {
		tr := rc.tr()
		half := countEvents(t, rc.cfg, tr) / 2
		mid := func() *Engine {
			e, err := NewEngine(rc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range tr.Jobs {
				if err := e.Submit(j); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < half; i++ {
				e.Step()
			}
			return e
		}
		want, err := mid().AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RestoreEngine(bytes.NewReader(want), rc.cfg); err != nil {
			t.Fatalf("%s: AppendBinary's container does not restore: %v", rc.name, err)
		}
		for _, tc := range []struct {
			name  string
			write func(e *Engine) (out []byte, err error)
			pre   string // what out must start with
		}{
			{"empty bytes.Buffer", func(e *Engine) ([]byte, error) {
				var buf bytes.Buffer
				err := e.Snapshot(&buf)
				return buf.Bytes(), err
			}, ""},
			{"bytes.Buffer with room", func(e *Engine) ([]byte, error) {
				var buf bytes.Buffer
				buf.Grow(2 * len(want))
				room := buf.AvailableBuffer()[:1]
				if err := e.Snapshot(&buf); err != nil {
					return nil, err
				}
				if &buf.Bytes()[0] != &room[0] {
					return nil, errors.New("snapshot did not encode into the buffer's room")
				}
				return buf.Bytes(), nil
			}, ""},
			{"bytes.Buffer with a prefix", func(e *Engine) ([]byte, error) {
				buf := bytes.NewBufferString(prefix)
				err := e.Snapshot(buf)
				return buf.Bytes(), err
			}, prefix},
			{"small bufio.Writer", func(e *Engine) ([]byte, error) {
				var out bytes.Buffer
				bw := bufio.NewWriterSize(&out, len(want)/4)
				bw.WriteString(prefix)
				if err := e.Snapshot(bw); err != nil {
					return nil, err
				}
				err := bw.Flush()
				return out.Bytes(), err
			}, prefix},
			{"plain io.Writer", func(e *Engine) ([]byte, error) {
				var out bytes.Buffer
				err := e.Snapshot(struct{ io.Writer }{&out})
				return out.Bytes(), err
			}, ""},
			{"AppendBinary behind a prefix", func(e *Engine) ([]byte, error) {
				return e.AppendBinary([]byte(prefix))
			}, prefix},
		} {
			e := mid()
			for pass := 0; pass < 2; pass++ {
				got, err := tc.write(e)
				if err != nil {
					t.Fatalf("%s, %s, pass %d: %v", rc.name, tc.name, pass, err)
				}
				if !bytes.HasPrefix(got, []byte(tc.pre)) || !bytes.Equal(got[len(tc.pre):], want) {
					t.Fatalf("%s, %s, pass %d: wrote %d bytes, want %q and the %d-byte container",
						rc.name, tc.name, pass, len(got), tc.pre, len(want))
				}
			}
		}
		e := mid()
		for _, out := range []io.Writer{failWriter{}, bufio.NewWriterSize(failWriter{}, 64)} {
			if err := e.Snapshot(out); !errors.Is(err, errWriteFailed) {
				t.Fatalf("%s: Snapshot into %T returned %v, want the writer's error", rc.name, out, err)
			}
		}
	}
}

// TestRestoreContainerErrorsAreTyped pins the error taxonomy the CLI
// relies on: damaged container → snap.ErrBadMagic / snap.ErrVersion /
// snap.ErrChecksum; valid container with impossible payload →
// snap.ErrCorrupt.
func TestRestoreContainerErrorsAreTyped(t *testing.T) {
	tc := resumeCases[0]
	blob := snapshotAt(t, tc.cfg, tc.tr(), 50)

	bad := append([]byte(nil), blob...)
	bad[0] = 'X'
	if _, err := RestoreEngine(bytes.NewReader(bad), tc.cfg); !errors.Is(err, snap.ErrBadMagic) {
		t.Fatalf("got %v, want ErrBadMagic", err)
	}
	bad = append([]byte(nil), blob...)
	bad[4] = 0xEE
	if _, err := RestoreEngine(bytes.NewReader(bad), tc.cfg); !errors.Is(err, snap.ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
	}
	// A version-1 container, which stored RNG draw counts, a version-2
	// one, whose parts were framed by the engine, and a version-3 one,
	// which stored state restore derives, are refused even with a valid
	// checksum.
	for _, v := range []uint32{1, 2, 3} {
		bad = append([]byte(nil), blob...)
		binary.LittleEndian.PutUint32(bad[4:], v)
		reframe(bad)
		if _, err := RestoreEngine(bytes.NewReader(bad), tc.cfg); !errors.Is(err, snap.ErrVersion) {
			t.Fatalf("version %d: got %v, want ErrVersion", v, err)
		}
	}
	bad = append([]byte(nil), blob...)
	bad[20] ^= 0x01
	if _, err := RestoreEngine(bytes.NewReader(bad), tc.cfg); !errors.Is(err, snap.ErrChecksum) {
		t.Fatalf("got %v, want ErrChecksum", err)
	}
}

// TestPeriodicAudit: Config.AuditEvery runs the invariant auditor
// between events without disturbing outputs, and a deliberately
// corrupted engine fails the audit with the named invariant.
func TestPeriodicAudit(t *testing.T) {
	tc := resumeCases[3]
	cfg := tc.cfg
	cfg.AuditEvery = 16
	res, err := Run(cfg, tc.tr())
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(tc.cfg, tc.tr())
	if err != nil {
		t.Fatal(err)
	}
	if g, w := goldenDigest(res), goldenDigest(base); g != w {
		t.Fatalf("AuditEvery changed outputs: %s vs %s", g, w)
	}

	if _, err := NewEngine(Config{MeshW: 8, MeshH: 8, Alloc: "mc1x1", Pattern: "nbody", AuditEvery: -1}); err == nil {
		t.Fatal("negative AuditEvery accepted")
	}
}

// TestAuditDetectsCorruption corrupts engine bookkeeping directly and
// requires Audit to name the broken invariant as a typed *Violation,
// with every expected detail in its report.
func TestAuditDetectsCorruption(t *testing.T) {
	const fcfs, easy = 0, 2
	if resumeCases[easy].cfg.Scheduler != "easy" {
		t.Fatalf("resume case %d is not EASY", easy)
	}

	// check runs resume case tc for 100 events, audits it clean, then
	// keeps stepping until corrupt applies (it returns false, changing
	// nothing, while the state it needs is missing). The audit must then
	// report invariant with every string in details.
	check := func(name string, tc int, invariant string, details []string, corrupt func(*Engine) bool) {
		t.Run(name, func(t *testing.T) {
			e, err := NewEngine(resumeCases[tc].cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range resumeCases[tc].tr().Jobs {
				if err := e.Submit(j); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 100; i++ {
				e.Step()
			}
			if err := e.Audit(); err != nil {
				t.Fatalf("healthy engine failed audit: %v", err)
			}
			for !corrupt(e) {
				if !e.Step() {
					t.Fatal("run drained before the corruption could apply")
				}
			}
			err = e.Audit()
			if err == nil {
				t.Fatal("corruption not detected")
			}
			var v *Violation
			if !errors.As(err, &v) {
				t.Fatalf("audit error %v carries no *Violation", err)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("%q", invariant)) {
				t.Fatalf("audit reported %v, want invariant %q", err, invariant)
			}
			for _, d := range details {
				if !strings.Contains(err.Error(), d) {
					t.Fatalf("audit reported %v, want detail %q", err, d)
				}
			}
		})
	}

	check("busy-procs", fcfs, "busy-procs", nil, func(e *Engine) bool { e.busyProcs++; return true })
	check("store-live", fcfs, "store-live", nil, func(e *Engine) bool { e.store.live++; return true })
	check("job-conservation", fcfs, "job-conservation", nil, func(e *Engine) bool { e.submitted++; return true })
	check("event-seq", fcfs, "event-seq", []string{"outside [0,0)"}, func(e *Engine) bool { e.seq = 0; return true })
	check("event-seq/share", fcfs, "event-seq", []string{"two events share seq"}, func(e *Engine) bool {
		return e.shareEventSeq(e.seq - 1)
	})
	check("event-seq/share-out-of-range", fcfs, "event-seq", []string{"outside [0,", "two events share seq"},
		func(e *Engine) bool { return e.shareEventSeq(e.seq + 5) })
	check("event-time", fcfs, "event-time", []string{"behind clock"}, (*Engine).backdateEvent)
	check("event-handle", fcfs, "event-handle", []string{"references unused handle"}, (*Engine).freeEventHandle)
	check("store-free", fcfs, "store-free",
		[]string{"on the free list twice", "neither in use nor on the free list"}, (*Engine).duplicateFreeHandle)
	check("run-mirror", easy, "run-mirror", []string{"runOrd repeats a handle"}, (*Engine).repeatRunHandle)
	check("event-order/fifo", fcfs, "event-order", []string{"FIFO event seq", "is not after"}, (*Engine).swapFIFOPair)
	check("event-order/heap", fcfs, "event-order", []string{"is before its parent"}, (*Engine).invertHeapRoot)
	check("arrival-slots", fcfs, "arrival-slots", nil, (*Engine).aliasArrivalSlot)
	check("arrival-slots/count", fcfs, "arrival-slots", nil, func(e *Engine) bool {
		e.slots = append(e.slots, trace.Job{})
		return true
	})
}

// TestResumeEveryAllocatorFamily cuts a run of every allocator family
// at half its events — contiguous, buddy, paged, the MC family, Gen-Alg,
// Random and every Paging strategy — plus submesh under the SJF and
// EASY schedulers and submesh and Gen-Alg under fault injection, then
// restores the snapshot, completes the run and requires the digest of
// the run that never stopped. Each case re-occupies its allocator
// through the restore path and rebuilds the scheduler state that the
// policy reads.
func TestResumeEveryAllocatorFamily(t *testing.T) {
	type resumeFamily struct {
		name string
		cfg  Config
		tr   *trace.Trace
	}
	sdsc := trace.NewSDSC(trace.SDSCConfig{Jobs: 120, MaxSize: 64, Seed: 4}).FilterMaxSize(64)
	var cases []resumeFamily
	specs := append(alloc.Fig11Specs(),
		"random", "submesh", "buddy", "zorder/bestfit", "moore",
		"hilbert/worstfit", "hilbert/nextfit", "hilbert/freelist/page1")
	for _, spec := range specs {
		cfg := Config{MeshW: 8, MeshH: 8, Alloc: spec, Pattern: "nbody",
			Load: 0.4, TimeScale: 0.01, Seed: 1}
		cases = append(cases, resumeFamily{spec, cfg, sdsc})
	}
	for _, policy := range []string{"sjf", "easy"} {
		cfg := Config{MeshW: 8, MeshH: 8, Alloc: "submesh", Pattern: "nbody",
			Load: 0.4, TimeScale: 0.01, Seed: 1, Scheduler: policy}
		cases = append(cases, resumeFamily{"submesh/" + policy, cfg, sdsc})
	}
	for _, spec := range []string{"submesh", "genalg"} {
		cases = append(cases, resumeFamily{"faulty-" + spec, faultyCfg(spec), faultTrace(120, 32)})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg, tc.tr)
			if err != nil {
				t.Fatal(err)
			}
			if tc.cfg.Faults.Enabled() && res.Killed == 0 {
				t.Fatal("fault injection killed no job")
			}
			blob := snapshotAt(t, tc.cfg, tc.tr, countEvents(t, tc.cfg, tc.tr)/2)
			e, err := RestoreEngine(bytes.NewReader(blob), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Complete(); err != nil {
				t.Fatal(err)
			}
			if got, want := goldenDigest(e.Result()), goldenDigest(res); got != want {
				t.Fatalf("resumed digest %s, want %s", got, want)
			}
		})
	}
}

// eventRecordLen is the byte length of one serialized event: t, seq,
// kind and handle, then a job of four 8-byte fields.
const eventRecordLen = 8 * 8

// eventSection locates the serialized event queue in blob, a snapshot
// of e: it returns the offset of the first event record, found as the
// event count followed by the head event's t and seq.
func eventSection(t *testing.T, e *Engine, blob []byte) int {
	t.Helper()
	h, ok := e.events.head()
	if !ok {
		t.Fatal("no queued events")
	}
	key := binary.LittleEndian.AppendUint64(nil, uint64(e.events.len()))
	key = binary.LittleEndian.AppendUint64(key, math.Float64bits(h.t))
	key = binary.LittleEndian.AppendUint64(key, uint64(h.seq))
	off := bytes.Index(blob, key)
	if off < 0 || bytes.Contains(blob[off+1:], key) {
		t.Fatal("event section not found exactly once")
	}
	return off + 8
}

// reframe recomputes blob's container CRC after its payload was edited.
func reframe(blob []byte) {
	binary.LittleEndian.PutUint32(blob[len(blob)-4:], crc32.ChecksumIEEE(blob[:len(blob)-4]))
}

// TestRestoreAcceptsEventsInAnyOrder reverses the event records of a
// mid-run snapshot of every resume case, re-frames the blob with a
// valid CRC, and requires the restored run to finish with the
// uninterrupted digest: the reader rebuilds the queue from events in
// any order, so the queue's layout is never part of the format.
func TestRestoreAcceptsEventsInAnyOrder(t *testing.T) {
	for _, tc := range resumeCases {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.tr()
			res, err := Run(tc.cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range tr.Jobs {
				if err := e.Submit(j); err != nil {
					t.Fatal(err)
				}
			}
			for n := countEvents(t, tc.cfg, tr) / 2; n > 0; n-- {
				e.Step()
			}
			var buf bytes.Buffer
			if err := e.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			blob := buf.Bytes()
			off, n := eventSection(t, e, blob), e.events.len()
			if n < 2 {
				t.Fatalf("%d queued events: nothing to reorder", n)
			}
			recs := make([]byte, n*eventRecordLen)
			copy(recs, blob[off:])
			for i := 0; i < n; i++ {
				copy(blob[off+i*eventRecordLen:], recs[(n-1-i)*eventRecordLen:(n-i)*eventRecordLen])
			}
			reframe(blob)
			e2, err := RestoreEngine(bytes.NewReader(blob), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := e2.Complete(); err != nil {
				t.Fatal(err)
			}
			if got, want := goldenDigest(e2.Result()), goldenDigest(res); got != want {
				t.Fatalf("resumed digest %s, want %s", got, want)
			}
		})
	}
}

// TestRestoreAcceptsFaultClocksInAnyOrder swaps pairs of fault-clock
// records in a checksum-valid snapshot of resume case faulty-mc1x1 at
// half its events and requires the restored run to finish with the
// uninterrupted digest. Restore heapifies the clocks it reads, so their
// order in the file is not part of the format; a stream that took them
// as a heap as they stood popped its failures out of order.
func TestRestoreAcceptsFaultClocksInAnyOrder(t *testing.T) {
	tc := resumeCases[3]
	if tc.name != "faulty-mc1x1" {
		t.Fatalf("resume case 3 is %s, want faulty-mc1x1", tc.name)
	}
	tr := tc.tr()
	res, err := Run(tc.cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	e, blob := stepAndSnapshot(t, tc.cfg, tr, countEvents(t, tc.cfg, tr)/2)
	// The stream writes its script cursor and clock count, then one
	// record per clock: time, node, next transition and splitmix64 state.
	const clockLen = 8 + 8 + 1 + 8
	off := findOnce(t, blob, stateKey(e.faults), "fault stream state") + 16
	n := int(binary.LittleEndian.Uint64(blob[off-8:]))
	for _, p := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {0, 63}} {
		t.Run(fmt.Sprintf("swap-%d-%d", p[0], p[1]), func(t *testing.T) {
			if p[1] >= n {
				t.Fatalf("%d clocks, no record %d", n, p[1])
			}
			bad := bytes.Clone(blob)
			a, b := bad[off+p[0]*clockLen:][:clockLen], bad[off+p[1]*clockLen:][:clockLen]
			tmp := bytes.Clone(a)
			copy(a, b)
			copy(b, tmp)
			reframe(bad)
			e2, err := RestoreEngine(bytes.NewReader(bad), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := e2.Complete(); err != nil {
				t.Fatal(err)
			}
			if got, want := goldenDigest(e2.Result()), goldenDigest(res); got != want {
				t.Fatalf("resumed digest %s, want %s", got, want)
			}
		})
	}
}

// stateKey is the bytes c's AppendState writes.
func stateKey(c snap.Codec) []byte {
	w := snap.NewWriter(nil)
	c.AppendState(w)
	n := w.Len()
	b := w.Finish()
	return b[len(b)-4-n : len(b)-4]
}

// findOnce returns the offset of key in blob, failing the test unless
// key occurs there exactly once.
func findOnce(t testing.TB, blob, key []byte, what string) int {
	t.Helper()
	off := bytes.Index(blob, key)
	if off < 0 || bytes.Contains(blob[off+1:], key) {
		t.Fatalf("%s not found exactly once", what)
	}
	return off
}

// TestRestoreTakesRNGStateAtOnce forges a checksum-valid snapshot of
// resume case 1 (random allocator, random pattern) at 400 events: its
// network message count is raised by 2^40, the raise that lets a file
// of RNG draw counts make restore replay draws for hours, and then the
// engine's RNG state, or the random allocator's, is overwritten.
// Another seed's ring must restore within a second, and a ring index of
// 608 or a ring word with bit 63 set must fail with snap.ErrCorrupt
// within a second.
func TestRestoreTakesRNGStateAtOnce(t *testing.T) {
	tc := resumeCases[1]
	if tc.cfg.Alloc != "random" || tc.cfg.Pattern != "random" {
		t.Fatalf("resume case 1 is %s/%s, want random/random", tc.cfg.Alloc, tc.cfg.Pattern)
	}
	e, blob := stepAndSnapshot(t, tc.cfg, tc.tr(), 400)
	ns := e.net.Stats()
	key := binary.LittleEndian.AppendUint64(nil, uint64(ns.Messages))
	key = binary.LittleEndian.AppendUint64(key, uint64(ns.TotalHops))
	key = binary.LittleEndian.AppendUint64(key, math.Float64bits(ns.TotalDistSec))
	msgOff := findOnce(t, blob, key, "network message count")
	binary.LittleEndian.PutUint64(blob[msgOff:], uint64(ns.Messages)+1<<40)

	other := stats.NewRNG(12345)
	for i := 0; i < 1000; i++ {
		other.Int63()
	}
	// A drawn RNG's state is a count of 608 words, the ring index and
	// the ring's 607 words.
	const drawnLen = 8 * (2 + 607)
	ring := stateKey(other)[8:]
	for _, c := range []struct {
		name  string
		state []byte
	}{
		{"engine", stateKey(e.rng)},
		{"random-allocator", stateKey(e.allocator.(snap.Codec))},
	} {
		t.Run(c.name, func(t *testing.T) {
			if len(c.state) != drawnLen {
				t.Fatalf("state of %d bytes, want a drawn ring's %d", len(c.state), drawnLen)
			}
			// off is the state's ring index; its 607 words follow.
			off := findOnce(t, blob, c.state, c.name+"'s RNG state") + 8
			for _, f := range []struct {
				name string
				edit func(state []byte)
				ok   bool
			}{
				{"another-ring", func(b []byte) { copy(b, ring) }, true},
				{"index-608", func(b []byte) { binary.LittleEndian.PutUint64(b, 608) }, false},
				{"bit-63", func(b []byte) { b[8+8*300+7] |= 0x80 }, false},
			} {
				t.Run(f.name, func(t *testing.T) {
					bad := bytes.Clone(blob)
					f.edit(bad[off:])
					reframe(bad)
					err := restoreWithin(t, bad, tc.cfg)
					if f.ok && err != nil || !f.ok && !errors.Is(err, snap.ErrCorrupt) {
						t.Fatalf("restore returned %v, want ok=%v or else snap.ErrCorrupt", err, f.ok)
					}
				})
			}
		})
	}
}

// heldOffset finds a live job whose random generator holds a phase's
// first message back in e, whose snapshot is blob, and returns the
// offset of the held message's source rank in blob (its destination
// rank follows). The generator's holding flag, the held ranks and the
// row's sent and hop counts and start time that follow them are found
// exactly once.
func heldOffset(t testing.TB, e *Engine, blob []byte) int {
	t.Helper()
	for h := range e.store.rows {
		r := &e.store.rows[h]
		held, holding := r.gen.Held()
		if !r.inUse || r.dead || !holding {
			continue
		}
		key := []byte{1}
		for _, v := range []uint64{uint64(held.Src), uint64(held.Dst), uint64(r.sent), uint64(r.hops), math.Float64bits(r.start)} {
			key = binary.LittleEndian.AppendUint64(key, v)
		}
		return findOnce(t, blob, key, fmt.Sprintf("handle %d's held message", h)) + 1
	}
	t.Fatal("no live job holds a message back")
	return 0
}

// rowTailOffset finds a live job in e that has sent a message and
// returns the offset in blob, e's snapshot, of its row's tail — sent,
// hops, start, last arrival and queueing time, found exactly once —
// with the row's quota.
func rowTailOffset(t testing.TB, e *Engine, blob []byte) (off int, quota int64) {
	t.Helper()
	for h := range e.store.rows {
		r := &e.store.rows[h]
		if !r.inUse || r.dead || r.sent == 0 {
			continue
		}
		var key []byte
		for _, v := range []uint64{uint64(r.sent), uint64(r.hops),
			math.Float64bits(r.start), math.Float64bits(r.lastArr), math.Float64bits(r.queued)} {
			key = binary.LittleEndian.AppendUint64(key, v)
		}
		return findOnce(t, blob, key, fmt.Sprintf("handle %d's row tail", h)), r.quota
	}
	t.Fatal("no live job has sent a message")
	return 0, 0
}

// stepAndSnapshot submits tr to a new engine, steps n events and returns
// the engine with its snapshot.
func stepAndSnapshot(t testing.TB, cfg Config, tr *trace.Trace, n int) (*Engine, []byte) {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range tr.Jobs {
		if err := e.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		e.Step()
	}
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return e, buf.Bytes()
}

// restoreWithin restores blob under cfg and returns the restore's
// error, failing the test unless the restore ends within a second.
func restoreWithin(t *testing.T, blob []byte, cfg Config) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := RestoreEngine(bytes.NewReader(blob), cfg)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(time.Second):
		t.Fatal("restore still running after 1 s")
		return nil
	}
}

// TestRestoreRejectsBadHeldMessage raises a rank of the message a live
// random job holds back for its next phase to 2^20, in a checksum-valid
// snapshot of resume case random-pattern-random-alloc at half its
// events. Restored, the rank would index past the job's node list on
// its next step, so it must be refused as corrupt.
func TestRestoreRejectsBadHeldMessage(t *testing.T) {
	tc := resumeCases[1]
	if tc.cfg.Pattern != "random" {
		t.Fatalf("resume case 1 runs %q, want random", tc.cfg.Pattern)
	}
	tr := tc.tr()
	e, blob := stepAndSnapshot(t, tc.cfg, tr, countEvents(t, tc.cfg, tr)/2)
	if _, err := RestoreEngine(bytes.NewReader(blob), tc.cfg); err != nil {
		t.Fatalf("pristine blob rejected: %v", err)
	}
	off := heldOffset(t, e, blob)
	t.Run("rank-2^20", func(t *testing.T) {
		bad := bytes.Clone(blob)
		binary.LittleEndian.PutUint64(bad[off:], 1<<20)
		reframe(bad)
		if err := restoreWithin(t, bad, tc.cfg); !errors.Is(err, snap.ErrCorrupt) {
			t.Fatalf("restore returned %v, want snap.ErrCorrupt", err)
		}
	})
}

// TestRestoreRejectsBadRowCounts forges a live row in a checksum-valid
// snapshot of golden case fig8-16x16-nbody-mc1x1 at half its events:
// its sent count to -1 or to one past the quota restore derives from
// its job, or its queueing time to NaN. A row that had sent more than
// its quota once restored cleanly and then panicked on the job's next
// step; each forgery must fail with snap.ErrCorrupt.
func TestRestoreRejectsBadRowCounts(t *testing.T) {
	tc := goldenCases[1]
	if tc.name != "fig8-16x16-nbody-mc1x1" {
		t.Fatalf("golden case 1 is %s, want fig8-16x16-nbody-mc1x1", tc.name)
	}
	tr := trace.NewSDSC(trace.SDSCConfig{Jobs: tc.jobs, MaxSize: tc.max, Seed: 1}).FilterMaxSize(tc.max)
	e, blob := stepAndSnapshot(t, tc.cfg, tr, countEvents(t, tc.cfg, tr)/2)
	off, quota := rowTailOffset(t, e, blob)
	for _, c := range []struct {
		name string
		word int // in the row's tail: sent, hops, start, last arrival, queueing time
		v    uint64
	}{
		{"sent-negative", 0, ^uint64(0)},
		{"sent-past-quota", 0, uint64(quota + 1)},
		{"queued-NaN", 4, math.Float64bits(math.NaN())},
	} {
		t.Run(c.name, func(t *testing.T) {
			bad := bytes.Clone(blob)
			binary.LittleEndian.PutUint64(bad[off+8*c.word:], c.v)
			reframe(bad)
			if err := restoreWithin(t, bad, tc.cfg); !errors.Is(err, snap.ErrCorrupt) {
				t.Fatalf("restore returned %v, want snap.ErrCorrupt", err)
			}
		})
	}
}

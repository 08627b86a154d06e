package sim

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"meshalloc/internal/alloc"
	"meshalloc/internal/trace"
)

// TestSeqSetMatchesMap checks the audit's open-addressing seq set
// against a map on streams that mix dense and sparse seqs, repeats,
// zero (the empty-slot value), negatives and the int64 extremes.
func TestSeqSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 100, 5000} {
		seqs := make([]int64, 0, n)
		for i := 0; i < n; i++ {
			switch rng.Intn(6) {
			case 0:
				seqs = append(seqs, int64(rng.Intn(n+1))) // dense, with repeats
			case 1:
				seqs = append(seqs, rng.Int63()) // sparse
			case 2:
				seqs = append(seqs, -int64(rng.Intn(4)))
			case 3:
				seqs = append(seqs, []int64{0, math.MinInt64, math.MaxInt64}[rng.Intn(3)])
			default:
				seqs = append(seqs, int64(i)<<20) // a stride that collides under identity hashing
			}
		}
		set, ref := newSeqSet(len(seqs)), map[int64]bool{}
		for i, s := range seqs {
			if got := set.add(s); got != ref[s] {
				t.Fatalf("n=%d: add(%d) at %d reported present=%v, map says %v", n, s, i, got, ref[s])
			}
			ref[s] = true
		}
	}
}

// TestAuditCatchesStolenNode takes one free processor behind the
// engine's back on every allocator that hands out exactly the requested
// processor count, and requires Audit to report the unaccounted node as
// a free-count violation.
func TestAuditCatchesStolenNode(t *testing.T) {
	tr := trace.NewSDSC(trace.SDSCConfig{Jobs: 60, MaxSize: 32, Seed: 2}).FilterMaxSize(32)
	for _, spec := range []string{"mc", "mc1x1", "genalg", "random", "hilbert/bestfit", "submesh"} {
		t.Run(spec, func(t *testing.T) {
			e, err := NewEngine(Config{MeshW: 8, MeshH: 8, Alloc: spec, Pattern: "nbody",
				Load: 0.4, TimeScale: 0.01, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range tr.Jobs {
				if err := e.Submit(j); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 100; i++ {
				e.Step()
			}
			if e.RunningJobs() == 0 || e.NumFree() == 0 {
				t.Fatalf("%d jobs running with %d free: nothing to steal mid-run", e.RunningJobs(), e.NumFree())
			}
			if err := e.Audit(); err != nil {
				t.Fatalf("healthy engine failed audit: %v", err)
			}
			if _, err := e.allocator.Allocate(alloc.Request{Size: 1}); err != nil {
				t.Fatal(err)
			}
			err = e.Audit()
			var v *Violation
			if !errors.As(err, &v) || v.Invariant != "free-count" {
				t.Fatalf("audit after stealing a node = %v, want a free-count violation", err)
			}
		})
	}
}

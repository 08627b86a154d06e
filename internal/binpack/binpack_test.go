package binpack

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"meshalloc/internal/snap"
)

// identityOrder returns the trivial curve 0..n-1.
func identityOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

func TestNewRejectsNonPermutation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New should panic on duplicate ids")
		}
	}()
	New([]int{0, 0, 2})
}

func TestAllocateErrors(t *testing.T) {
	p := New(identityOrder(4))
	if _, err := p.Allocate(0, BestFit); err == nil {
		t.Error("size 0 should fail")
	}
	if _, err := p.Allocate(-1, BestFit); err == nil {
		t.Error("negative size should fail")
	}
	if _, err := p.Allocate(5, BestFit); err != ErrInsufficient {
		t.Errorf("oversize request error = %v, want ErrInsufficient", err)
	}
}

func TestFreeListTakesPrefix(t *testing.T) {
	// Curve order reverses ids so rank 0 is id 3.
	p := New([]int{3, 2, 1, 0})
	ids, err := p.Allocate(2, FreeList)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 3 || ids[1] != 2 {
		t.Fatalf("free list allocated %v, want [3 2]", ids)
	}
}

// carve sets up a packer with the free-interval profile given by lengths
// of alternating free/busy runs, starting free.
func carve(t *testing.T, freeRuns, busyRuns []int) *Packer {
	t.Helper()
	n := 0
	for _, l := range freeRuns {
		n += l
	}
	for _, l := range busyRuns {
		n += l
	}
	p := New(identityOrder(n))
	pos := 0
	for i := range freeRuns {
		pos += freeRuns[i]
		if i < len(busyRuns) {
			var busy []int
			for j := 0; j < busyRuns[i]; j++ {
				busy = append(busy, pos+j)
			}
			// Allocate the exact busy ids via free list on a fresh
			// sub-interval is fiddly; mark directly through Allocate
			// by temporarily using internal knowledge is worse. We
			// use Release/Allocate invariants instead: allocate
			// everything then release what should stay free.
			pos += busyRuns[i]
			_ = busy
		}
	}
	// Simpler: allocate all, then release the free runs.
	all, err := p.Allocate(n, FreeList)
	if err != nil {
		t.Fatal(err)
	}
	_ = all
	pos = 0
	for i := range freeRuns {
		var free []int
		for j := 0; j < freeRuns[i]; j++ {
			free = append(free, pos+j)
		}
		p.Release(free)
		pos += freeRuns[i]
		if i < len(busyRuns) {
			pos += busyRuns[i]
		}
	}
	return p
}

func TestIntervals(t *testing.T) {
	p := carve(t, []int{3, 5, 2}, []int{1, 4})
	ivs := p.AppendIntervals(nil)
	want := []Interval{{0, 3}, {4, 5}, {13, 2}}
	if len(ivs) != len(want) {
		t.Fatalf("intervals = %v, want %v", ivs, want)
	}
	for i := range want {
		if ivs[i] != want[i] {
			t.Fatalf("intervals = %v, want %v", ivs, want)
		}
	}
}

func TestFirstFitPicksFirstBin(t *testing.T) {
	p := carve(t, []int{3, 5, 4}, []int{1, 1})
	ids, err := p.Allocate(3, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	// First bin [0,3) fits exactly.
	if ids[0] != 0 || ids[2] != 2 {
		t.Fatalf("first fit allocated %v, want ranks 0-2", ids)
	}
}

func TestBestFitPicksTightestBin(t *testing.T) {
	p := carve(t, []int{5, 3, 4}, []int{1, 1})
	ids, err := p.Allocate(3, BestFit)
	if err != nil {
		t.Fatal(err)
	}
	// Bins are len 5 at 0, len 3 at 6, len 4 at 10; best fit is len 3.
	if ids[0] != 6 {
		t.Fatalf("best fit allocated %v, want start at rank 6", ids)
	}
}

func TestBestFitTieGoesEarliest(t *testing.T) {
	p := carve(t, []int{3, 3}, []int{2})
	ids, err := p.Allocate(2, BestFit)
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != 0 {
		t.Fatalf("best fit tie allocated %v, want start 0", ids)
	}
}

func TestSumOfSquaresPicksLargestBin(t *testing.T) {
	p := carve(t, []int{5, 3, 7}, []int{1, 1})
	ids, err := p.Allocate(3, SumOfSquares)
	if err != nil {
		t.Fatal(err)
	}
	// Largest bin (len 7 at rank 10) minimizes the resulting sum of
	// squares.
	if ids[0] != 10 {
		t.Fatalf("sum-of-squares allocated %v, want start at rank 10", ids)
	}
}

func TestFallbackMinSpan(t *testing.T) {
	// Bins: len 2 at 0, len 2 at 4, len 3 at 9; request 4 fits nowhere.
	p := carve(t, []int{2, 2, 3}, []int{2, 3})
	for _, s := range []Strategy{FirstFit, BestFit, SumOfSquares} {
		q := carve(t, []int{2, 2, 3}, []int{2, 3})
		ids, err := q.Allocate(4, s)
		if err != nil {
			t.Fatal(err)
		}
		// Candidate windows over free ranks [0,1,4,5,9,10,11]:
		// span(0,1,4,5)=5, span(1,4,5,9)=8, span(4,5,9,10)=6,
		// span(5,9,10,11)=6 — minimum is the first.
		if ids[0] != 0 || ids[3] != 5 {
			t.Errorf("%v fallback allocated %v, want [0 1 4 5]", s, ids)
		}
	}
	_ = p
}

func TestReleaseRestoresState(t *testing.T) {
	p := New(identityOrder(10))
	ids, _ := p.Allocate(4, BestFit)
	if p.NumFree() != 6 {
		t.Fatalf("NumFree = %d, want 6", p.NumFree())
	}
	p.Release(ids)
	if p.NumFree() != 10 {
		t.Fatalf("NumFree after release = %d, want 10", p.NumFree())
	}
	if len(p.AppendIntervals(nil)) != 1 {
		t.Fatalf("intervals after full release: %v", p.AppendIntervals(nil))
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	p := New(identityOrder(4))
	ids, _ := p.Allocate(2, FreeList)
	p.Release(ids)
	defer func() {
		if recover() == nil {
			t.Fatal("double release should panic")
		}
	}()
	p.Release(ids)
}
func TestWorstFitPicksLargestBin(t *testing.T) {
	p := carve(t, []int{5, 3, 7}, []int{1, 1})
	ids, err := p.Allocate(3, WorstFit)
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != 10 {
		t.Fatalf("worst fit allocated %v, want start at rank 10", ids)
	}
}

func TestNextFitResumesAndWraps(t *testing.T) {
	// Bins: [0,4) [5,9) [10,14).
	p := carve(t, []int{4, 4, 4}, []int{1, 1})
	a, err := p.Allocate(2, NextFit)
	if err != nil || a[0] != 0 {
		t.Fatalf("first next-fit = %v, %v", a, err)
	}
	// Resume point is rank 2; the remainder of bin 0 serves next.
	b, err := p.Allocate(2, NextFit)
	if err != nil || b[0] != 2 {
		t.Fatalf("second next-fit = %v, %v", b, err)
	}
	// Bin 0 exhausted; moves to bin at rank 5.
	c, err := p.Allocate(3, NextFit)
	if err != nil || c[0] != 5 {
		t.Fatalf("third next-fit = %v, %v", c, err)
	}
	// Request 4 only fits the last bin.
	d, err := p.Allocate(4, NextFit)
	if err != nil || d[0] != 10 {
		t.Fatalf("fourth next-fit = %v, %v", d, err)
	}
	// Wrap around: release the first bin and allocate again.
	p.Release(a)
	p.Release(b)
	e, err := p.Allocate(4, NextFit)
	if err != nil || e[0] != 0 {
		t.Fatalf("wrapped next-fit = %v, %v", e, err)
	}
}

func TestStrategyStringRoundTrip(t *testing.T) {
	for _, s := range []Strategy{FreeList, FirstFit, BestFit, SumOfSquares, WorstFit, NextFit} {
		got, err := StrategyByName(s.String())
		if err != nil || got != s {
			t.Errorf("round trip of %v failed: %v, %v", s, got, err)
		}
	}
	if _, err := StrategyByName("almostfit"); err == nil {
		t.Error("unknown strategy should fail")
	}
}

// TestAllocateReleaseProperty checks with testing/quick that any sequence
// of allocations and releases keeps the packer's bookkeeping consistent:
// allocated ids are unique, never handed out twice while busy, and
// NumFree matches the interval totals.
func TestAllocateReleaseProperty(t *testing.T) {
	f := func(ops []uint8, strat uint8) bool {
		p := New(identityOrder(24))
		s := Strategy(strat % 6)
		var live [][]int
		for _, op := range ops {
			if op%2 == 0 && p.NumFree() > 0 {
				size := int(op/2)%p.NumFree() + 1
				ids, err := p.Allocate(size, s)
				if err != nil || len(ids) != size {
					return false
				}
				live = append(live, ids)
			} else if len(live) > 0 {
				p.Release(live[len(live)-1])
				live = live[:len(live)-1]
			}
		}
		total := 0
		for _, iv := range p.AppendIntervals(nil) {
			total += iv.Len
		}
		if total != p.NumFree() {
			return false
		}
		busy := 0
		for _, ids := range live {
			busy += len(ids)
		}
		return busy+p.NumFree() == 24
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPackerStateRoundTrip moves a Next Fit packer's cursor through its
// codec into a packer that re-occupies the same ranks, as a restore
// does: both must then make the same allocations. A cursor outside
// [0, Size] must be rejected and leave the cursor as it was.
func TestPackerStateRoundTrip(t *testing.T) {
	a, b := New(identityOrder(40)), New(identityOrder(40))
	var held []int
	for _, size := range []int{5, 3, 7} {
		ids, err := a.Allocate(size, NextFit)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, ids...)
	}
	a.Release(held[:5])
	b.Occupy(held[5:])
	encode := func(p *Packer, at int) *snap.Reader {
		w := snap.NewWriter(nil)
		if p != nil {
			p.AppendState(w)
		} else {
			w.Int(at)
		}
		r, err := snap.NewReader(bytes.NewReader(w.Finish()))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if err := b.ReadState(encode(a, 0)); err != nil {
		t.Fatal(err)
	}
	for _, at := range []int{-1, 41} {
		if err := b.ReadState(encode(nil, at)); err == nil {
			t.Fatalf("resume rank %d accepted", at)
		}
	}
	for i, size := range []int{4, 9, 2, 6} {
		x, errA := a.Allocate(size, NextFit)
		y, errB := b.Allocate(size, NextFit)
		if errA != nil || errB != nil || !slices.Equal(x, y) {
			t.Fatalf("allocation %d: %v %v and %v %v after the round trip", i, x, errA, y, errB)
		}
	}
}

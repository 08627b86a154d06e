package binpack

import (
	"slices"
	"testing"
)

// bpRand is the repo-standard xorshift64 PRNG for deterministic tests.
type bpRand uint64

func (r *bpRand) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = bpRand(x)
	return x
}

var allStrategies = []Strategy{FreeList, FirstFit, BestFit, SumOfSquares, WorstFit, NextFit}

// shadow is the reference free set in rank space, kept apart from the
// packer's bitset: it is built only from the ids Allocate returns and
// Release takes.
type shadow []bool

// newShadow returns the shadow of p with every processor free.
func newShadow(p *Packer) shadow {
	free := make(shadow, len(p.order))
	for r := range free {
		free[r] = true
	}
	return free
}

// set marks the ranks of ids free or busy.
func (f shadow) set(p *Packer, ids []int, free bool) {
	for _, id := range ids {
		f[p.rankOf[id]] = free
	}
}

// intervalsRef is the naive reference interval scan: a rank-by-rank walk
// of the shadow free set the word-parallel scan must reproduce.
func intervalsRef(free shadow) []Interval {
	var ivs []Interval
	for i := 0; i < len(free); {
		if !free[i] {
			i++
			continue
		}
		start := i
		for i < len(free) && free[i] {
			i++
		}
		ivs = append(ivs, Interval{Start: start, Len: i - start})
	}
	return ivs
}

// prefixRanksRef is the naive reference for prefixRanks: the first size
// free ranks found by testing every rank in order.
func prefixRanksRef(free shadow, size int) []int {
	var ranks []int
	for r := 0; r < len(free) && len(ranks) < size; r++ {
		if free[r] {
			ranks = append(ranks, r)
		}
	}
	return ranks
}

// checkScans compares the word-parallel interval and prefix scans with
// their rank-by-rank references on the shadow of the packer's current
// state. Every strategy decision is a function of these two scans, so
// agreement here is agreement of every allocation.
func checkScans(t *testing.T, p *Packer, free shadow, step int) {
	t.Helper()
	if got, want := p.AppendIntervals(nil), intervalsRef(free); !slices.Equal(got, want) {
		t.Fatalf("step %d: intervals %v, reference %v", step, got, want)
	}
	for _, size := range []int{1, p.NumFree() / 2, p.NumFree()} {
		if got, want := p.prefixRanks(size), prefixRanksRef(free, size); !slices.Equal(got, want) {
			t.Fatalf("step %d: prefixRanks(%d) %v, reference %v", step, size, got, want)
		}
	}
}

// churnScans drives a packer through a random allocate/release workload
// under strategy s, checking the scans against their references after
// every step.
func churnScans(t *testing.T, p *Packer, s Strategy, seed uint64, steps int) {
	t.Helper()
	r := bpRand(seed)
	free := newShadow(p)
	var live [][]int
	for step := 0; step < steps; step++ {
		if r.next()%3 != 0 && p.NumFree() > 0 {
			size := int(r.next()%uint64(p.NumFree())) + 1
			ids, err := p.Allocate(size, s)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			free.set(p, ids, false)
			live = append(live, ids)
		} else if len(live) > 0 {
			i := int(r.next() % uint64(len(live)))
			p.Release(live[i])
			free.set(p, live[i], true)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		checkScans(t, p, free, step)
	}
}

// TestWordScanMatchesNaive churns a packer through the same workload for
// every strategy and several awkward sizes (word boundaries, sub-word,
// multi-word), checking the word-parallel scans against the naive walks.
func TestWordScanMatchesNaive(t *testing.T) {
	for _, n := range []int{1, 17, 64, 65, 127, 128, 300, 1024} {
		for _, s := range allStrategies {
			churnScans(t, New(identityOrder(n)), s, uint64(n)*13+uint64(s)+1, 200)
		}
	}
}

// TestWordScanBitsMirrorsFree checks the bitset directly through a
// churn: bit r is set iff the shadow has rank r free, and the count of
// set bits, pad bits included, is NumFree.
func TestWordScanBitsMirrorsFree(t *testing.T) {
	p := New(identityOrder(130))
	r := bpRand(5)
	free := newShadow(p)
	var live [][]int
	for step := 0; step < 400; step++ {
		if r.next()%3 != 0 && p.NumFree() > 0 {
			size := int(r.next()%uint64(p.NumFree())) + 1
			ids, err := p.Allocate(size, allStrategies[step%len(allStrategies)])
			if err != nil {
				t.Fatal(err)
			}
			free.set(p, ids, false)
			live = append(live, ids)
		} else if len(live) > 0 {
			p.Release(live[len(live)-1])
			free.set(p, live[len(live)-1], true)
			live = live[:len(live)-1]
		}
		for rank, f := range free {
			if p.bits.Get(rank) != f {
				t.Fatalf("step %d: bit %d = %v, free = %v", step, rank, p.bits.Get(rank), f)
			}
		}
		if p.bits.Count() != p.NumFree() {
			t.Fatalf("step %d: bit count %d, NumFree %d", step, p.bits.Count(), p.NumFree())
		}
	}
}

// FuzzWordScanEquivalence fuzzes the word/naive scan pairing over
// arbitrary op streams.
func FuzzWordScanEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(64), uint8(1))
	f.Add(uint64(99), uint8(200), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, size, strat uint8) {
		n := int(size)%512 + 1
		s := allStrategies[int(strat)%len(allStrategies)]
		churnScans(t, New(identityOrder(n)), s, seed|1, 120)
	})
}

package sim

import (
	"math"
	"math/rand"
	"testing"
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

package occupancy

import (
	"math/bits"
	"testing"
)

// xorshift64 is the repo-standard deterministic PRNG for tests.
type bsRand uint64

func (r *bsRand) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = bsRand(x)
	return x
}

func randomBitset(r *bsRand, n int, density uint64) (*Bitset, []bool) {
	b := NewBitset(n)
	ref := make([]bool, n)
	for i := 0; i < n; i++ {
		if r.next()%8 < density {
			b.Set(i)
			ref[i] = true
		}
	}
	return b, ref
}

func padOK(t *testing.T, b *Bitset) {
	t.Helper()
	if r := uint(b.n) & 63; r != 0 {
		last := b.Words()[len(b.Words())-1]
		if last&^((1<<r)-1) != 0 {
			t.Fatalf("pad bits set in last word: %#x (n=%d)", last, b.n)
		}
	}
}

func TestBitsetBasics(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		b := NewBitset(n)
		if b.Count() != 0 {
			t.Fatalf("n=%d: fresh bitset Count=%d", n, b.Count())
		}
		b.SetAll()
		padOK(t, b)
		if b.Count() != n {
			t.Fatalf("n=%d: SetAll Count=%d", n, b.Count())
		}
		for i := 0; i < n; i++ {
			b.Clear(i)
		}
		if b.Count() != 0 {
			t.Fatalf("n=%d: Count=%d after clearing every bit", n, b.Count())
		}
		if n == 0 {
			continue
		}
		b.Set(n - 1)
		padOK(t, b)
		if !b.Get(n-1) || b.Count() != 1 {
			t.Fatalf("n=%d: Set(n-1) not observed", n)
		}
		b.Clear(n - 1)
		if b.Get(n-1) || b.Count() != 0 {
			t.Fatalf("n=%d: Clear(n-1) not observed", n)
		}
	}
}

func TestBitsetOutOfRangePanics(t *testing.T) {
	b := NewBitset(10)
	for _, f := range []func(){
		func() { b.Set(10) }, func() { b.Clear(-1) }, func() { b.Get(10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on out-of-range index")
				}
			}()
			f()
		}()
	}
}

func TestBitsetNextSetNextClear(t *testing.T) {
	r := bsRand(0x9e3779b97f4a7c15)
	for _, n := range []int{1, 63, 64, 65, 130, 517} {
		for _, density := range []uint64{0, 1, 4, 7, 8} {
			b, ref := randomBitset(&r, n, density)
			for from := -1; from <= n+1; from++ {
				wantSet := -1
				for i := max(from, 0); i < n; i++ {
					if ref[i] {
						wantSet = i
						break
					}
				}
				if got := b.NextSet(from); got != wantSet {
					t.Fatalf("n=%d d=%d NextSet(%d)=%d want %d", n, density, from, got, wantSet)
				}
				wantClear := n
				for i := max(from, 0); i < n; i++ {
					if !ref[i] {
						wantClear = i
						break
					}
				}
				if got := b.NextClear(from); got != wantClear {
					t.Fatalf("n=%d d=%d NextClear(%d)=%d want %d", n, density, from, got, wantClear)
				}
			}
		}
	}
}

func TestBitsetRunScanIdiom(t *testing.T) {
	r := bsRand(42)
	for trial := 0; trial < 50; trial++ {
		n := 1 + int(r.next()%300)
		b, ref := randomBitset(&r, n, 5)
		type run struct{ start, length int }
		var got, want []run
		for i := 0; ; {
			j := b.NextSet(i)
			if j < 0 {
				break
			}
			k := b.NextClear(j)
			got = append(got, run{j, k - j})
			i = k
		}
		for i := 0; i < n; {
			if !ref[i] {
				i++
				continue
			}
			j := i
			for i < n && ref[i] {
				i++
			}
			want = append(want, run{j, i - j})
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d runs, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d run %d: %+v want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// refRunMask is the bit-at-a-time reference for RunMask.
func refRunMask(src []uint64, nbits, w int) []uint64 {
	get := func(i int) bool {
		if i >= nbits {
			return false
		}
		return src[i>>6]&(1<<(uint(i)&63)) != 0
	}
	dst := make([]uint64, len(src))
	for x := 0; x < nbits; x++ {
		ok := true
		for d := 0; d < w; d++ {
			if !get(x + d) {
				ok = false
				break
			}
		}
		if ok {
			dst[x>>6] |= 1 << (uint(x) & 63)
		}
	}
	return dst
}

func TestRunMaskMatchesReference(t *testing.T) {
	r := bsRand(7)
	for trial := 0; trial < 40; trial++ {
		n := 1 + int(r.next()%260)
		b, _ := randomBitset(&r, n, 5)
		src := b.Words()
		nbits := len(src) * 64
		for _, w := range []int{1, 2, 3, 7, 13, 63, 64, 65, 70, 129} {
			dst := make([]uint64, len(src))
			RunMask(dst, src, w)
			want := refRunMask(src, nbits, w)
			for i := range dst {
				if dst[i] != want[i] {
					t.Fatalf("trial %d w=%d word %d: got %#x want %#x", trial, w, i, dst[i], want[i])
				}
			}
		}
	}
}

func TestAndShiftRightWideShift(t *testing.T) {
	// Shifts of >= 64 cross whole words; >= len(v)*64 clears everything.
	v := []uint64{^uint64(0), ^uint64(0), ^uint64(0)}
	AndShiftRight(v, 64)
	if v[0] != ^uint64(0) || v[1] != ^uint64(0) || v[2] != 0 {
		t.Fatalf("shift 64: %#x", v)
	}
	v = []uint64{^uint64(0), ^uint64(0)}
	AndShiftRight(v, 200)
	if v[0] != 0 || v[1] != 0 {
		t.Fatalf("shift past end: %#x", v)
	}
}

func TestBitsetCountMatchesOnesCount(t *testing.T) {
	r := bsRand(99)
	b, ref := randomBitset(&r, 777, 3)
	want := 0
	for _, set := range ref {
		if set {
			want++
		}
	}
	if got := b.Count(); got != want {
		t.Fatalf("Count=%d want %d", got, want)
	}
	// Cross-check the exposed words against the reference too.
	total := 0
	for _, w := range b.Words() {
		total += bits.OnesCount64(w)
	}
	if total != want {
		t.Fatalf("Words popcount=%d want %d", total, want)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

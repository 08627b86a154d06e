package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"meshalloc/internal/stats"
)

// tailPercentile returns the highest of p99, p90 and p50 that leaves at
// least ten of n samples beyond its nearest-rank position, or 0 when
// even p50 does not (fewer than 20 samples).
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 90, 50} {
		if n-nearestRank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
func nearestRank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(p, len(sorted))-1]
}

// median returns the median of xs (the mean of the middle pair for an
// even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// reservoirCap bounds the samples a sampler keeps: a traced Fig 7 grid
// pops tens of millions of events, and 64k samples still leave p99 with
// hundreds of samples beyond it.
const reservoirCap = 1 << 16

// sampler keeps a uniform random sample (Vitter's algorithm R) of the
// values it is given, plus their exact count and sum. Its RNG has a fixed
// seed, so equal inputs give equal samples.
type sampler struct {
	n   int
	sum float64
	xs  []float64
	rng stats.Splitmix64
}

func (s *sampler) add(v float64) {
	s.n++
	s.sum += v
	if len(s.xs) < reservoirCap {
		s.xs = append(s.xs, v)
		return
	}
	if i := s.rng.Next() % uint64(s.n); i < reservoirCap {
		s.xs[i] = v
	}
}

// summary is a sampler's median, tail percentile (see tailPercentile)
// and count.
type summary struct {
	p50, tail, tailP float64
	count            int
}

func (s *sampler) summary() summary {
	xs := append([]float64(nil), s.xs...)
	sort.Float64s(xs)
	tp := tailPercentile(len(xs))
	if tp == 0 {
		tp = 50
	}
	return summary{p50: percentile(xs, 50), tail: percentile(xs, tp), tailP: tp, count: s.n}
}

// digest folds a run's simulated outcome into one FNV-64a value, so
// two builds can be compared exactly on the same seed.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{h: fnv.New64a()} }

func (d digest) add(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

func (d digest) sum() uint64 { return d.h.Sum64() }

// heapWatch records the largest live heap seen at the points a run
// marks. Engine workloads force a collection at fixed fractions of their
// finished jobs (mark), which makes the reading repeat; a run whose
// engines are out of reach samples after every collection instead
// (natural): a finalizer on a throwaway object runs after each one and
// re-arms itself, so watching never forces a collection.
type heapWatch struct {
	peak atomic.Uint64
	done atomic.Bool
}

type gcSentinel struct{ _ *int }

// natural samples after every garbage collection until stop.
func (w *heapWatch) natural() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		w.sample()
		if !w.done.Load() {
			w.natural()
		}
	})
}

// mark forces a collection and samples the live heap.
func (w *heapWatch) mark() {
	runtime.GC()
	w.sample()
}

func (w *heapWatch) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		old := w.peak.Load()
		if v <= old || w.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// stop ends watching and returns the peak live heap in bytes.
func (w *heapWatch) stop() uint64 {
	w.done.Store(true)
	return w.peak.Load()
}

// The host reference kernel. The machines this benchmark runs on are
// shared, and their speed drifts by a quarter over minutes: memory-bound
// code slows most, pure arithmetic least. The kernel below does a fixed
// amount of both kinds of work and does not touch the simulator, so the
// ratio of its time on the recording host (refNominal) to its median
// time during a run rescales that run's host-time metrics to the
// recording host's speed. On a 2-CPU shared VM this cut the
// run-to-run spread of the simulator's times by about 40%.
const refNominal = 0.030 // seconds

// refChain is a single random cycle through 8 MB, larger than any
// private cache. It is a global array rather than a heap object so it
// does not count in the live heap the benchmark reports.
var (
	refChain     [1 << 21]int32
	refChainOnce sync.Once
)

func buildRefChain() {
	p := rand.New(rand.NewSource(1)).Perm(len(refChain))
	for i, v := range p {
		refChain[v] = int32(p[(i+1)%len(p)])
	}
}

var refSink uint64

// refSeconds runs the kernel once and returns the geometric mean of the
// times of its two halves: a 500k-step pointer chase (memory latency)
// and 150 passes of FNV-64a over 64 KB (core speed).
func refSeconds() float64 {
	refChainOnce.Do(buildRefChain)
	t0 := time.Now()
	idx := int32(0)
	for i := 0; i < 500_000; i++ {
		idx = refChain[idx]
	}
	chase := time.Since(t0).Seconds()
	h := fnv.New64a()
	buf := make([]byte, 1<<16)
	t1 := time.Now()
	for i := 0; i < 150; i++ {
		h.Write(buf)
	}
	hashed := time.Since(t1).Seconds()
	refSink += uint64(idx) + h.Sum64()
	return math.Sqrt(chase * hashed)
}

package alloc

import "sync"

// Parallel candidate scoring for Gen-Alg. The candidate loop scores
// every free processor that is not a twin (twins.go) against a
// read-only snapshot of the machine (the busy bitmap, the ball index
// and the twin marks are only mutated between scans, never during
// one), so the loop shards cleanly: each worker scans one contiguous
// chunk of the center range with a private incumbent, and the chunks
// reduce in ascending order with a strict < comparison.
//
// Determinism contract: the sequential loop keeps the FIRST strictly
// better candidate, so among equal-cost candidates the lowest center id
// wins. The chunked scan reproduces that exactly — a worker's local
// incumbent is the lowest-id best of its chunk, and the in-order
// strict-< reduction keeps the lowest-id best across chunks — so the
// parallel scan returns the same (cost, center) pair as the sequential
// scan for every machine state, and simulations are bit-identical at
// any worker count. Only the wall clock changes.
//
// Parallel scoring is opt-in (SetParallelism, or sim.Config.AllocWorkers
// through the engine); the default remains the sequential zero-alloc
// loop. Only the indexed scorer shards — the naive reference scorer
// shares gather buffers across candidates and stays sequential. MC has
// no parallel scan: its candidates are cheap enough that the goroutine
// fan-out costs more than it saves on a 2-CPU host (see BENCH.md).

// SetParallelism bounds the number of goroutines scoring Gen-Alg
// candidates, growing the pool of worker-private scoring scratches to
// match. SetParallelism(1) (or less) restores the sequential loop.
func (a *GenAlg) SetParallelism(workers int) {
	if workers < 1 {
		workers = 1
	}
	a.workers = workers
	for len(a.parScratch) < workers {
		a.parScratch = append(a.parScratch, newGenScratch(a.g))
	}
}

// chunkBest is one worker's chunk result: the lowest-id best candidate
// of its center range, or cost/center -1 when the chunk held none.
type chunkBest struct {
	cost   int
	center int
}

// reduceChunks folds per-chunk incumbents in ascending chunk order with
// strict <, electing the lowest-id candidate among global ties — the
// same candidate the sequential scan keeps.
func reduceChunks(res []chunkBest) (bestCost, bestCenter int) {
	bestCost, bestCenter = -1, -1
	for _, r := range res {
		if r.cost == -1 {
			continue
		}
		if bestCost == -1 || r.cost < bestCost {
			bestCost, bestCenter = r.cost, r.center
		}
	}
	return bestCost, bestCenter
}

// scanParallel shards Gen-Alg's indexed candidate scan over a.workers
// goroutines, each scoring through its own genScratch and passing over
// the centers skip marks (see twinSkips). The radius hint resets per
// chunk, which is harmless: ballCutoff's result is independent of the
// hint, so scores do not depend on chunking. The twin marks are global
// — a twin's lower-id class member may sit in an earlier chunk — which
// the in-order reduction honours like the sequential loop does.
func (a *GenAlg) scanParallel(k int, skip []bool) (bestDist, bestCenter int) {
	n := a.g.Size()
	workers := a.workers
	if workers > n {
		workers = n
	}
	res := make([]chunkBest, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			s := &a.parScratch[w]
			s.radius = 0
			best := chunkBest{cost: -1, center: -1}
			for center := lo; center < hi; center++ {
				if skip[center] {
					continue
				}
				d := a.countPairwise(s, center, k)
				if best.cost == -1 || d < best.cost {
					best = chunkBest{cost: d, center: center}
				}
			}
			res[w] = best
		}(w, lo, hi)
	}
	wg.Wait()
	return reduceChunks(res)
}

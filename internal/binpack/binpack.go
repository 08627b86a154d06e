// Package binpack implements the processor-selection strategies that the
// Paging / one-dimensional-reduction allocators run along a curve
// linearization of the mesh.
//
// Following Leung et al., each maximal interval of free processors with
// contiguous curve ranks is a partially-filled "bin". An incoming request
// is served from a bin chosen by a bin-packing heuristic (First Fit, Best
// Fit, Sum-of-Squares) or, in the original Paging formulation of Lo et
// al., simply from the prefix of a sorted free list. When no bin is large
// enough, the request falls back to the set of free processors spanning
// the smallest range of curve ranks.
package binpack

import (
	"errors"
	"fmt"

	"meshalloc/internal/occupancy"
	"meshalloc/internal/snap"
)

// Strategy selects which free-rank interval serves a request.
type Strategy int

// Available selection strategies.
const (
	// FreeList allocates the first Size free ranks along the curve
	// (Lo et al.'s sorted free list).
	FreeList Strategy = iota
	// FirstFit allocates from the first interval large enough.
	FirstFit
	// BestFit allocates from the interval that will have the fewest
	// processors remaining.
	BestFit
	// SumOfSquares allocates from the interval that minimizes the sum of
	// squared remaining interval lengths, the adaptation of the
	// Csirik-Johnson Sum-of-Squares bin-packing heuristic that Leung et
	// al. tried and found wanting. Allocating size from an interval of
	// length L changes the sum by (L-size)^2 - L^2, which falls as L
	// grows, so it picks what WorstFit picks.
	SumOfSquares
	// WorstFit allocates from the largest interval, the remaining
	// member of Johnson's classic heuristic family; kept distinct from
	// SumOfSquares by name for ablation studies.
	WorstFit
	// NextFit allocates from the first fitting interval at or after the
	// previously used one, wrapping around — Johnson's cheapest
	// heuristic.
	NextFit
)

// strategies holds each strategy's name and the picker that returns the
// index of the interval serving a request of size, or -1 if none fits.
// FreeList picks no interval: it takes the first free ranks.
var strategies = [...]struct {
	name string
	pick func(p *Packer, ivs []Interval, size int) int
}{
	FreeList:     {"freelist", nil},
	FirstFit:     {"firstfit", (*Packer).pickFirstFit},
	BestFit:      {"bestfit", (*Packer).pickBestFit},
	SumOfSquares: {"sumofsquares", (*Packer).pickLargest},
	WorstFit:     {"worstfit", (*Packer).pickLargest},
	NextFit:      {"nextfit", (*Packer).pickNextFit},
}

// String implements fmt.Stringer.
func (s Strategy) String() string {
	if uint(s) >= uint(len(strategies)) {
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
	return strategies[s].name
}

// StrategyByName parses a strategy name as produced by String.
func StrategyByName(name string) (Strategy, error) {
	for s, st := range strategies {
		if st.name == name {
			return Strategy(s), nil
		}
	}
	return 0, fmt.Errorf("binpack: unknown strategy %q", name)
}

// ErrInsufficient reports that a request exceeds the free processor count.
var ErrInsufficient = errors.New("binpack: not enough free processors")

// Interval is a maximal run of free curve ranks [Start, Start+Len).
type Interval struct {
	Start, Len int
}

// Packer tracks the free/busy state of processors along a fixed curve
// order and serves allocation requests by rank.
type Packer struct {
	order   []int // node id at each rank
	rankOf  []int // rank of each node id
	numFree int
	// bits is the free set in rank space (bit set = free), so interval
	// and prefix enumeration scan 64 ranks per instruction. Allocate,
	// Release and Occupy are its only mutators.
	bits *occupancy.Bitset
	// nextStart remembers where NextFit resumes scanning.
	nextStart int
	// ivsBuf and ranksBuf are persistent per-Allocate workspaces so the
	// steady state allocates only the returned id slice.
	ivsBuf   []Interval
	ranksBuf []int
}

// New returns a Packer over the given curve order (a permutation of node
// ids) with every processor free. It panics if order is not a
// permutation: the curve is static configuration.
func New(order []int) *Packer {
	p := &Packer{
		order:   append([]int(nil), order...),
		rankOf:  make([]int, len(order)),
		numFree: len(order),
		bits:    occupancy.NewBitset(len(order)),
	}
	p.bits.SetAll()
	for i := range p.rankOf {
		p.rankOf[i] = -1
	}
	for rank, id := range order {
		if id < 0 || id >= len(order) || p.rankOf[id] != -1 {
			panic(fmt.Sprintf("binpack: order is not a permutation (id %d)", id))
		}
		p.rankOf[id] = rank
	}
	return p
}

// NumFree returns the number of free processors.
func (p *Packer) NumFree() int { return p.numFree }

// Free reports whether the processor with node id is free. It panics on
// an out-of-range id.
func (p *Packer) Free(id int) bool { return p.bits.Get(p.rankOf[id]) }

// AppendIntervals appends the current maximal free intervals to ivs in
// rank order, reusing ivs' capacity. It is the candidate-enumeration hot
// path of every fit strategy, exported for benchmarks and external reuse:
// it hops between runs with TrailingZeros64 scans over the free bitset,
// 64 ranks per instruction.
func (p *Packer) AppendIntervals(ivs []Interval) []Interval {
	for i := 0; ; {
		j := p.bits.NextSet(i)
		if j < 0 {
			break
		}
		k := p.bits.NextClear(j)
		ivs = append(ivs, Interval{Start: j, Len: k - j})
		i = k
	}
	return ivs
}

// Allocate selects size free processors using the strategy, marks them
// busy, and returns their node ids in rank order. It returns
// ErrInsufficient when fewer than size processors are free and rejects
// non-positive sizes.
func (p *Packer) Allocate(size int, s Strategy) ([]int, error) {
	if size <= 0 {
		return nil, fmt.Errorf("binpack: invalid request size %d", size)
	}
	if size > p.numFree {
		return nil, ErrInsufficient
	}
	if uint(s) >= uint(len(strategies)) {
		return nil, fmt.Errorf("binpack: unknown strategy %v", s)
	}
	var ranks []int
	if pick := strategies[s].pick; pick == nil {
		ranks = p.prefixRanks(size)
	} else {
		ranks = p.fitRanks(size, pick)
	}
	ids := make([]int, len(ranks))
	for i, r := range ranks {
		p.bits.Clear(r)
		ids[i] = p.order[r]
	}
	p.numFree -= size
	return ids, nil
}

// Release marks the processors with the given node ids free again. It
// panics if an id is already free or out of range, which would indicate a
// double release — a simulator bug worth failing loudly on.
func (p *Packer) Release(ids []int) {
	for _, id := range ids {
		if id < 0 || id >= len(p.rankOf) {
			panic(fmt.Sprintf("binpack: release of invalid id %d", id))
		}
		r := p.rankOf[id]
		if p.bits.Get(r) {
			panic(fmt.Sprintf("binpack: double release of id %d", id))
		}
		p.bits.Set(r)
	}
	p.numFree += len(ids)
}

// Occupy marks exactly the given node ids busy, as if an earlier
// Allocate had returned them — the restore path of a snapshot, where
// the job→nodes assignment is authoritative and the packer's indexes
// are rebuilt to match. It panics on an id that is already busy or out
// of range, which would indicate a corrupt snapshot the caller should
// have rejected.
func (p *Packer) Occupy(ids []int) {
	for _, id := range ids {
		if id < 0 || id >= len(p.rankOf) {
			panic(fmt.Sprintf("binpack: occupy of invalid id %d", id))
		}
		r := p.rankOf[id]
		if !p.bits.Get(r) {
			panic(fmt.Sprintf("binpack: occupy of busy id %d", id))
		}
		p.bits.Clear(r)
	}
	p.numFree -= len(ids)
}

// AppendState implements snap.Codec: the NextFit resume rank, the
// packer's only state beyond the free set, which a restore rebuilds
// with Occupy. It is written under every strategy.
func (p *Packer) AppendState(w *snap.Writer) { w.Int(p.nextStart) }

// ReadState implements snap.Codec. It rejects a resume rank outside
// [0, Size]: nextStart equals Size after an allocation ending at the
// last rank, and pickNextFit then wraps.
func (p *Packer) ReadState(r *snap.Reader) error {
	switch at := r.Int(); {
	case r.Err() != nil:
		return r.Err()
	case at < 0 || at > len(p.order):
		return fmt.Errorf("binpack: next-fit resume rank %d outside [0, %d]", at, len(p.order))
	default:
		p.nextStart = at
		return nil
	}
}

// Audit checks the cached free count against the free set and returns
// an error if they differ, or nil.
func (p *Packer) Audit() error {
	if n := p.bits.Count(); n != p.numFree {
		return fmt.Errorf("binpack: counted %d free ranks, cached numFree %d", n, p.numFree)
	}
	return nil
}

// MarkDown removes a node from service: its rank reads as busy to
// every strategy, interval scan and free count until MarkUp, exactly
// as if a one-processor job occupied it. It panics if the node is
// currently allocated or already down — the simulator must kill and
// release the occupying job before masking the node.
func (p *Packer) MarkDown(id int) { p.Occupy([]int{id}) }

// MarkUp returns a downed node to service: the one-processor release.
// It panics if the node is not currently masked out.
func (p *Packer) MarkUp(id int) { p.Release([]int{id}) }

// prefixRanks returns the first size free ranks (sorted free list) in the
// persistent rank workspace; the result is only valid until the next
// Allocate call. It walks free runs rather than testing every rank, so
// fully busy stretches cost one popcount-scan per 64 ranks.
func (p *Packer) prefixRanks(size int) []int {
	ranks := p.ranksBuf[:0]
	for i := 0; len(ranks) < size; {
		j := p.bits.NextSet(i)
		if j < 0 {
			break
		}
		k := p.bits.NextClear(j)
		for r := j; r < k && len(ranks) < size; r++ {
			ranks = append(ranks, r)
		}
		i = k
	}
	p.ranksBuf = ranks
	return ranks
}

// fitRanks serves a request from the interval chosen by pick, falling
// back to the minimal-span window when no interval is large enough. Like
// prefixRanks it returns a view of the persistent rank workspace.
func (p *Packer) fitRanks(size int, pick func(*Packer, []Interval, int) int) []int {
	p.ivsBuf = p.AppendIntervals(p.ivsBuf[:0])
	if idx := pick(p, p.ivsBuf, size); idx >= 0 {
		iv := p.ivsBuf[idx]
		ranks := p.ranksBuf[:0]
		for i := 0; i < size; i++ {
			ranks = append(ranks, iv.Start+i)
		}
		p.ranksBuf = ranks
		return ranks
	}
	return p.minSpanRanks(size)
}

// pickFirstFit returns the index of the first interval with Len >= size,
// or -1.
func (p *Packer) pickFirstFit(ivs []Interval, size int) int {
	for i, iv := range ivs {
		if iv.Len >= size {
			return i
		}
	}
	return -1
}

// pickBestFit returns the index of the smallest interval with Len >= size
// (fewest processors remaining), or -1. Ties go to the earliest interval.
func (p *Packer) pickBestFit(ivs []Interval, size int) int {
	best, bestLen := -1, 0
	for i, iv := range ivs {
		if iv.Len >= size && (best == -1 || iv.Len < bestLen) {
			best, bestLen = i, iv.Len
		}
	}
	return best
}

// pickLargest returns the index of the largest fitting interval, or -1,
// for WorstFit and SumOfSquares. Ties go to the earliest.
func (p *Packer) pickLargest(ivs []Interval, size int) int {
	best, bestLen := -1, 0
	for i, iv := range ivs {
		if iv.Len >= size && iv.Len > bestLen {
			best, bestLen = i, iv.Len
		}
	}
	return best
}

// pickNextFit returns the first fitting interval at or after the last
// allocation point, wrapping around, or -1. It also advances the resume
// point.
func (p *Packer) pickNextFit(ivs []Interval, size int) int {
	if len(ivs) == 0 {
		return -1
	}
	// Find the first interval whose start is >= nextStart.
	first := 0
	for i, iv := range ivs {
		if iv.Start >= p.nextStart {
			first = i
			break
		}
		if i == len(ivs)-1 {
			first = 0 // wrap
		}
	}
	for k := 0; k < len(ivs); k++ {
		i := (first + k) % len(ivs)
		if ivs[i].Len >= size {
			p.nextStart = ivs[i].Start + size
			return i
		}
	}
	return -1
}

// minSpanRanks returns the size free ranks whose range of ranks along the
// curve is smallest — the fallback of Leung et al. when no bin can hold
// the whole request. Ties go to the earliest window.
func (p *Packer) minSpanRanks(size int) []int {
	freeRanks := p.prefixRanks(p.numFree)
	bestStart, bestSpan := 0, -1
	for i := 0; i+size <= len(freeRanks); i++ {
		span := freeRanks[i+size-1] - freeRanks[i]
		if bestSpan == -1 || span < bestSpan {
			bestStart, bestSpan = i, span
		}
	}
	return freeRanks[bestStart : bestStart+size]
}

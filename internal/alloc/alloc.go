// Package alloc implements the processor-allocation algorithms compared in
// the paper: the Paging / one-dimensional-reduction family (a space-filling
// curve plus a bin-packing selection strategy), Mache et al.'s shape-aware
// MC and its shape-oblivious CPlant variant MC1x1, Krumke et al.'s
// Gen-Alg, and a random baseline.
//
// The algorithms are dimension-generic: they run over a topo.Grid, so the
// same Paging, MC-family and Gen-Alg implementations serve the paper's
// 2-D meshes and the native 3-D machines of the ext-cube3d experiment.
// Only the contiguous baselines (submesh first fit, the 2-D buddy
// system) are inherently two-dimensional and are gated accordingly.
//
// An Allocator owns the free/busy state of one machine. The simulator
// calls Allocate when the FCFS scheduler starts a job and Release when the
// job terminates.
package alloc

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"meshalloc/internal/binpack"
	"meshalloc/internal/curve"
	"meshalloc/internal/curveopt"
	"meshalloc/internal/occupancy"
	"meshalloc/internal/stats"
	"meshalloc/internal/topo"
)

// ErrInsufficient reports that a request exceeds the free processor count.
var ErrInsufficient = errors.New("alloc: not enough free processors")

// Request asks for Size processors. ShapeW x ShapeH is the submesh shape
// the user would request on an MC system; when zero, shape-aware
// allocators derive a near-square shape from Size.
type Request struct {
	Size   int
	ShapeW int
	ShapeH int
}

// Shape returns the request's submesh shape, deriving the most-square
// shape with ShapeW >= ShapeH covering Size when none was given — the
// bias toward rectangular allocations the paper attributes to real users.
func (r Request) Shape() (w, h int) {
	if r.ShapeW > 0 && r.ShapeH > 0 {
		return r.ShapeW, r.ShapeH
	}
	w = int(math.Ceil(math.Sqrt(float64(r.Size))))
	if w < 1 {
		w = 1
	}
	h = (r.Size + w - 1) / w
	if h < 1 {
		h = 1
	}
	return w, h
}

// ShapeExt returns the request's shape as nd-dimensional extents: the
// explicit 2-D shape when one was given on a 2-D machine, otherwise the
// near-cubic shape covering Size, derived greedily axis by axis. For
// nd = 2 this reproduces Shape exactly, which keeps MC's candidate
// scoring bit-identical on the paper's meshes.
func (r Request) ShapeExt(nd int) topo.Point {
	var ext topo.Point
	for i := range ext {
		ext[i] = 1
	}
	if nd == 2 {
		ext[0], ext[1] = r.Shape()
		return ext
	}
	remaining := r.Size
	for i := 0; i < nd; i++ {
		e := intRootCeil(remaining, nd-i)
		ext[i] = e
		remaining = (remaining + e - 1) / e
	}
	return ext
}

// intRootCeil returns the smallest e >= 1 with e^k >= n.
func intRootCeil(n, k int) int {
	if n <= 1 {
		return 1
	}
	e := int(math.Ceil(math.Pow(float64(n), 1/float64(k))))
	if e < 1 {
		e = 1
	}
	// Guard against floating-point undershoot/overshoot around exact
	// powers.
	for pow(e-1, k) >= n {
		e--
	}
	for pow(e, k) < n {
		e++
	}
	return e
}

func pow(b, k int) int {
	p := 1
	for i := 0; i < k; i++ {
		p *= b
	}
	return p
}

// Allocator assigns sets of processors to jobs on a fixed machine.
type Allocator interface {
	// Name identifies the algorithm, e.g. "hilbert/bestfit" or "mc1x1".
	Name() string
	// Allocate selects exactly req.Size free processors and marks them
	// busy. It returns ErrInsufficient when the machine cannot satisfy
	// the request.
	Allocate(req Request) ([]int, error)
	// Release frees processors previously returned by Allocate.
	Release(ids []int)
	// NumFree returns the current number of free processors.
	NumFree() int
	// Occupy re-marks an exact node set busy, as if Allocate had just
	// returned it, with every internal index updated in lockstep: the
	// snapshot-restore path, where the job→nodes assignment is
	// authoritative. Callers must pass node sets Allocate previously
	// returned (valid ids, currently free); Occupy may panic on anything
	// else, so restore paths validate ids first.
	Occupy(ids []int)
	// AuditIndexes cross-checks the allocator's redundant internal
	// indexes against its ground-truth busy state, feeding sim.Audit. It
	// returns nil when every index agrees.
	AuditIndexes() error
}

// FaultAware is implemented by allocators that can mask individual
// nodes out of service for fault injection. A downed node reads as
// busy to every scoring, scanning and free-count path — candidate
// enumeration, occupancy indexes and word scans all treat it exactly
// like an allocated processor — until MarkUp returns it. Callers must
// release any job occupying the node before MarkDown, and must not
// MarkDown a node twice. Allocators that do not implement FaultAware
// cannot run under fault injection (the engine rejects the
// configuration up front).
type FaultAware interface {
	MarkDown(id int)
	MarkUp(id int)
}

// Spec names an allocator configuration in the form used by the CLI tools
// and the experiment harness:
//
//	"mc", "mc1x1", "genalg", "random",
//	"submesh", "buddy" (contiguous baselines, 2-D only),
//	"<curve>" (Paging with sorted free list),
//	"<curve>/<strategy>" (Paging with a bin-packing strategy), or
//	"<curve>/<strategy>/page<s>" (Lo et al.'s Paging with 2^s-sided pages),
//
// e.g. "hilbert/bestfit", "scurve/firstfit", "hindex",
// "hilbert/freelist/page1". On machines with more than two dimensions
// the curve must order n-D grids (hilbert, scurve, rowmajor, zorder, and
// the proj2d-* projections); the 2-D-only curves are rejected, and so is
// a curve whose enclosing power-of-two cube exceeds curve.MaxCubeCells.
func Spec(g *topo.Grid, spec string, seed int64) (Allocator, error) {
	switch spec {
	case "mc":
		return NewMC(g), nil
	case "mc1x1":
		return NewMC1x1(g), nil
	case "genalg":
		return NewGenAlg(g), nil
	case "random":
		return NewRandom(g, seed), nil
	case "submesh":
		if g.ND() != 2 {
			return nil, fmt.Errorf("alloc: submesh allocation requires a 2-D mesh, got %d-D", g.ND())
		}
		return NewSubmeshFirstFit(g), nil
	case "buddy":
		if g.ND() != 2 {
			return nil, fmt.Errorf("alloc: buddy requires a 2-D mesh, got %d-D", g.ND())
		}
		if g.Dim(0) != g.Dim(1) || g.Dim(0)&(g.Dim(0)-1) != 0 {
			return nil, fmt.Errorf("alloc: buddy requires a square power-of-two mesh, got %dx%d",
				g.Dim(0), g.Dim(1))
		}
		return NewBuddy(g), nil
	}
	parts := strings.Split(spec, "/")
	var c curve.Curve
	if parts[0] == "optcurve" {
		// Locality-searched ordering for arbitrary topologies (the
		// paper's integer-program idea); see the curveopt package.
		c = curveopt.MeshCurve{Seed: seed}
	} else {
		var err error
		c, err = curve.ByName(parts[0])
		if err != nil {
			return nil, fmt.Errorf("alloc: unknown allocator %q", spec)
		}
	}
	strat := binpack.FreeList
	if len(parts) >= 2 {
		var err error
		strat, err = binpack.StrategyByName(parts[1])
		if err != nil {
			return nil, err
		}
	}
	switch {
	case len(parts) == 3:
		var s int
		if _, err := fmt.Sscanf(parts[2], "page%d", &s); err != nil || s < 0 {
			return nil, fmt.Errorf("alloc: bad page suffix %q in %q", parts[2], spec)
		}
		dims, err := pageGrid(g, s)
		if err == nil {
			err = curve.CheckDims(c, dims)
		}
		if err != nil {
			return nil, err
		}
		return NewPagedPaging(g, c, strat, s), nil
	case len(parts) > 3:
		return nil, fmt.Errorf("alloc: unknown allocator %q", spec)
	}
	if err := curve.CheckDims(c, g.Dims()); err != nil {
		return nil, err
	}
	return NewPaging(g, c, strat), nil
}

// Specs returns the nine allocator specs whose curves appear in the
// paper's Figures 7 and 8: MC, MC1x1, Gen-Alg, and the three curves each
// with sorted free list and Best Fit.
func Specs() []string {
	return []string{
		"mc", "mc1x1", "genalg",
		"hilbert", "hilbert/bestfit",
		"hindex", "hindex/bestfit",
		"scurve", "scurve/bestfit",
	}
}

// Fig11Specs returns the twelve allocator specs of the paper's Figure 11
// contiguity table: the nine graph algorithms plus First Fit for each
// curve.
func Fig11Specs() []string {
	return append(Specs(),
		"hilbert/firstfit", "hindex/firstfit", "scurve/firstfit")
}

// Paging is the one-dimensional-reduction allocator: processors are
// ordered by a space-filling curve and selected with a bin-packing
// strategy (page size 1, so no internal fragmentation).
type Paging struct {
	g      *topo.Grid
	c      curve.Curve
	strat  binpack.Strategy
	packer *binpack.Packer
}

// NewPaging returns a Paging allocator over g using curve c and selection
// strategy strat. It panics when the curve cannot order the grid (see
// curve.CheckDims; use Spec for an error-returning path): curve choice
// is static configuration.
func NewPaging(g *topo.Grid, c curve.Curve, strat binpack.Strategy) *Paging {
	order, err := curve.GridOrder(c, g.Dims())
	if err != nil {
		panic(fmt.Sprintf("alloc: %v", err))
	}
	return &Paging{
		g:      g,
		c:      c,
		strat:  strat,
		packer: binpack.New(order),
	}
}

// Name implements Allocator.
func (p *Paging) Name() string {
	if p.strat == binpack.FreeList {
		return p.c.Name()
	}
	return p.c.Name() + "/" + p.strat.String()
}

// Allocate implements Allocator.
func (p *Paging) Allocate(req Request) ([]int, error) {
	ids, err := p.packer.Allocate(req.Size, p.strat)
	if err == binpack.ErrInsufficient {
		return nil, ErrInsufficient
	}
	return ids, err
}

// Release implements Allocator.
func (p *Paging) Release(ids []int) { p.packer.Release(ids) }

// NumFree implements Allocator.
func (p *Paging) NumFree() int { return p.packer.NumFree() }

// MarkDown implements FaultAware: the node's rank is masked busy in
// the packer's free set.
func (p *Paging) MarkDown(id int) { p.packer.MarkDown(id) }

// MarkUp implements FaultAware.
func (p *Paging) MarkUp(id int) { p.packer.MarkUp(id) }

// tracker is the shared busy-set bookkeeping for the set-based allocators
// (MC, Gen-Alg, Random) and submesh first fit. When an allocator carries
// an occupancy index (boxes for MC shell counting, balls for Gen-Alg
// ball counting, rows for the submesh anchor search), every take and
// release keeps the index in lockstep with the busy bitmap — the index
// is a counter over the same state, never a second source of truth.
type tracker struct {
	g       *topo.Grid
	busy    []bool
	numFree int
	boxes   *occupancy.Boxes
	balls   *occupancy.Balls
	rows    *rowMasks
}

func newTracker(g *topo.Grid) tracker {
	return tracker{g: g, busy: make([]bool, g.Size()), numFree: g.Size()}
}

func (t *tracker) NumFree() int { return t.numFree }

func (t *tracker) Release(ids []int) {
	for _, id := range ids {
		if id < 0 || id >= len(t.busy) || !t.busy[id] {
			panic(fmt.Sprintf("alloc: release of free or invalid id %d", id))
		}
		t.busy[id] = false
		if t.boxes != nil {
			t.boxes.Release(id)
		}
		if t.balls != nil {
			t.balls.Release(id)
		}
		if t.rows != nil {
			t.rows.release(id)
		}
	}
	t.numFree += len(ids)
}

func (t *tracker) take(ids []int) {
	for _, id := range ids {
		t.busy[id] = true
		if t.boxes != nil {
			t.boxes.Take(id)
		}
		if t.balls != nil {
			t.balls.Take(id)
		}
		if t.rows != nil {
			t.rows.take(id)
		}
	}
	t.numFree -= len(ids)
}

// MarkDown implements FaultAware: the node joins the busy set (and
// every occupancy index) as if a one-processor job occupied it, so
// shell counts, ball counts, row runs and free counts all see it as
// unavailable. It panics on a busy or already-down node — the engine
// kills and releases occupying jobs before masking.
func (t *tracker) MarkDown(id int) { t.Occupy([]int{id}) }

// MarkUp implements FaultAware: the one-processor release of a downed
// node.
func (t *tracker) MarkUp(id int) { t.Release([]int{id}) }

func (t *tracker) check(size int) error {
	if size <= 0 {
		return fmt.Errorf("alloc: invalid request size %d", size)
	}
	if size > t.numFree {
		return ErrInsufficient
	}
	return nil
}

// MC is the shell-scoring allocator of Mache, Lo and Windisch. Every free
// processor evaluates an allocation centered on itself: free processors
// are gathered shell by shell outward from the requested submesh shape,
// weighted by shell index, and the candidate with the lowest total weight
// (cost) wins. MC1x1 is the same algorithm with shell 0 fixed at a
// single processor. On n-D machines the shells are box surfaces instead
// of rings; the scoring rule is unchanged.
//
// The candidate loop never touches the shells: an incremental occupancy
// index (see internal/occupancy) answers "free processors within shell
// k" from box counts, the per-shell weights are summed arithmetically,
// a monotone lower bound prunes candidates that cannot undercut the
// incumbent, and the scan stops once the incumbent reaches the cost
// floor no center can beat. Only the single winning center performs a
// real shell walk to materialize ids, so the selection is bit-identical
// to gathering shells for every candidate — the same shells, the same
// truncation, the same first-strictly-better tie-breaking — at a
// fraction of the work.
type MC struct {
	tracker
	oneByOne bool
	// gatherBuf is persistent scratch for the winner's shell walk, so
	// the steady state allocates only the returned slice.
	gatherBuf []int
}

// NewMC returns the shape-aware MC allocator.
func NewMC(g *topo.Grid) *MC {
	a := &MC{tracker: newTracker(g)}
	a.boxes = occupancy.NewBoxes(g)
	return a
}

// NewMC1x1 returns the shape-oblivious CPlant variant whose shell 0 is a
// single processor.
func NewMC1x1(g *topo.Grid) *MC {
	a := NewMC(g)
	a.oneByOne = true
	return a
}

// Name implements Allocator.
func (a *MC) Name() string {
	if a.oneByOne {
		return "mc1x1"
	}
	return "mc"
}

// shell0 returns the extents of shell 0 for req: the request's shape,
// or a single processor under MC1x1.
func (a *MC) shell0(req Request) topo.Point {
	if !a.oneByOne {
		return req.ShapeExt(a.g.ND())
	}
	var ext topo.Point
	for i := range ext {
		ext[i] = 1
	}
	return ext
}

// Allocate implements Allocator.
func (a *MC) Allocate(req Request) ([]int, error) {
	if err := a.check(req.Size); err != nil {
		return nil, err
	}
	ext := a.shell0(req)
	floor := a.costFloor(ext, req.Size)
	bestCost, bestCenter := -1, -1
	for center := 0; center < a.g.Size(); center++ {
		if a.busy[center] {
			continue
		}
		cost, ok := a.countCost(a.g.Coord(center), ext, req.Size, bestCost)
		if ok && (bestCost == -1 || cost < bestCost) {
			bestCost, bestCenter = cost, center
			if cost == floor {
				break // no center scores below the floor, and ties never win
			}
		}
	}
	if bestCost == -1 {
		return nil, ErrInsufficient
	}
	cost, ok := a.gather(a.g.Coord(bestCenter), ext, req.Size)
	if !ok || cost != bestCost {
		panic("alloc: occupancy index diverged from the shell walk")
	}
	best := append([]int(nil), a.gatherBuf...)
	a.take(best)
	return best, nil
}

// countCost computes the exact shell-weight cost of a candidate from
// box counts alone: cost = sum over k of k * (freeBox(k) - freeBox(k-1))
// with the outermost shell truncated to exactly size, where freeBox(k)
// is the number of free processors within shell k's clipped outer box.
// The running value cost + (k+1)*(size - freeBox(k)) is a monotone
// lower bound on the final cost — every processor still missing sits at
// shell k+1 or beyond — so the loop aborts (ok == false) as soon as the
// bound proves the candidate cannot be strictly better than the
// incumbent cost. Pass incumbent < 0 to disable pruning.
func (a *MC) countCost(c, ext topo.Point, size, incumbent int) (cost int, ok bool) {
	prev := 0
	for k, maxK := 0, a.g.MaxShells(); k <= maxK; k++ {
		lo, hi, onGrid := a.g.GrownBounds(c, ext, k)
		if !onGrid {
			// Unreachable: a grown box always contains its on-grid center.
			continue
		}
		cur := a.boxes.FreeIn(lo, hi)
		if cur >= size {
			return cost + k*(size-prev), true
		}
		cost += k * (cur - prev)
		prev = cur
		if incumbent >= 0 && cost+(k+1)*(size-cur) >= incumbent {
			return 0, false
		}
	}
	// Unreachable when numFree >= size: the box grown maxK times covers
	// the whole machine, mirroring the walked gather's termination.
	return 0, false
}

// costFloor returns the least cost any center can score: countCost's
// sum equals Σ_k (size − min(freeBox(k), size)), and freeBox(k) never
// exceeds vol, the unclipped volume Π_a (ext_a + 2k) of shell k's box.
func (a *MC) costFloor(ext topo.Point, size int) int {
	floor := 0
	for k, vol := 0, 0; vol < size; k++ {
		vol = 1
		for i := 0; i < a.g.ND() && vol < size; i++ {
			vol *= min(ext[i]+2*k, size)
		}
		floor += max(0, size-vol)
	}
	return floor
}

// gather collects size free processors into a.gatherBuf in shells around
// center and returns the summed shell-weight cost, or (0, false) if the
// shells run out before size processors are found. The ShellEach walk
// needs no intermediate buffer; the closure stays on the stack because
// ShellEach does not retain it.
func (a *MC) gather(center, ext topo.Point, size int) (int, bool) {
	ids := a.gatherBuf[:0]
	cost := 0
	maxK := a.g.MaxShells()
	for k := 0; k <= maxK && len(ids) < size; k++ {
		a.g.ShellEach(center, ext, k, func(id int) bool {
			if a.busy[id] {
				return true
			}
			ids = append(ids, id)
			cost += k
			return len(ids) < size
		})
	}
	a.gatherBuf = ids
	if len(ids) < size {
		return 0, false
	}
	return cost, true
}

// GenAlg is the (2-2/k)-approximation of Krumke et al. for minimizing
// average pairwise distance: for every free processor p, take the k-1
// free processors closest to p and score the set by total pairwise
// distance; the best-scoring set wins.
//
// By default the candidate loop never gathers: the ball index (see
// internal/occupancy) binary-searches the Manhattan-ball radius holding
// size free processors, per-axis slice counts reconstruct the member
// set's coordinate marginals, the boundary ring alone is walked for the
// row-major tie-breaking tail, and the exact total pairwise distance
// follows from the marginals because L1 distance separates per axis.
// A per-Allocate pre-pass (twins.go) skips every free center whose
// gathered set is a translate of an earlier candidate's: it can only
// tie. Only the winning center performs the real ring gather. Torus
// machines and dimensionalities without ball support fall back to the
// reference scorer (wrapped distances do not separate per axis).
type GenAlg struct {
	tracker
	// Persistent candidate scratch: nearest fills nearBuf, and the
	// reference scan swaps it with bestBuf when a candidate wins.
	nearBuf []int
	bestBuf []int
	ringBuf []int
	axisBuf [topo.MaxDims][]int
	// marg and radius are the indexed scorer's workspace: per-axis
	// member marginals, and the previous candidate's ball radius seeding
	// the next radius search (neighboring centers rarely differ by
	// much). The hint only steers where ballCutoff starts searching —
	// the cutoff it returns is a pure function of the machine state — so
	// any hint yields identical costs.
	marg   [topo.MaxDims][]int
	radius int
	maxR   int
	// twin is the indexed scan's twin pre-pass workspace (see twins.go).
	twin twinScratch
}

// NewGenAlg returns a Gen-Alg allocator over g.
func NewGenAlg(g *topo.Grid) *GenAlg {
	a := newGenAlg(g)
	if !g.Torus() {
		a.balls = occupancy.NewBalls(g) // nil on unsupported dimensionalities
	}
	if a.balls != nil {
		a.twin = newTwinScratch(g)
	}
	return a
}

// NewGenAlgNaive returns the reference Gen-Alg scorer: the pre-index
// implementation that gathers rings for every candidate. It is retained
// as the ground truth the indexed scorer is fuzzed against, and as the
// baseline for the allocator benchmarks.
func NewGenAlgNaive(g *topo.Grid) *GenAlg { return newGenAlg(g) }

func newGenAlg(g *topo.Grid) *GenAlg {
	a := &GenAlg{tracker: newTracker(g)}
	for i := 0; i < g.ND(); i++ {
		a.marg[i] = make([]int, g.Dim(i))
		a.maxR += g.Dim(i)
	}
	return a
}

// Name implements Allocator.
func (a *GenAlg) Name() string { return "genalg" }

// Allocate implements Allocator.
func (a *GenAlg) Allocate(req Request) ([]int, error) {
	if err := a.check(req.Size); err != nil {
		return nil, err
	}
	if a.balls == nil {
		return a.allocateNaive(req.Size)
	}
	bestDist, bestCenter := -1, -1
	a.radius = 0
	for center, s := range a.twinSkips(req.Size) {
		if s {
			continue
		}
		d := a.countPairwise(center, req.Size)
		if bestDist == -1 || d < bestDist {
			bestDist, bestCenter = d, center
		}
	}
	if bestCenter == -1 {
		return nil, ErrInsufficient
	}
	a.nearest(bestCenter, req.Size)
	if d := a.totalPairwise(a.nearBuf); d != bestDist {
		panic("alloc: occupancy index diverged from the ring gather")
	}
	best := append([]int(nil), a.nearBuf...)
	a.take(best)
	return best, nil
}

// allocateNaive is the reference scoring loop: gather the nearest set
// for every free candidate and keep the first strictly-better one.
func (a *GenAlg) allocateNaive(size int) ([]int, error) {
	bestDist := -1
	for center := 0; center < a.g.Size(); center++ {
		if a.busy[center] {
			continue
		}
		a.nearest(center, size)
		d := a.totalPairwise(a.nearBuf)
		if bestDist == -1 || d < bestDist {
			bestDist = d
			a.bestBuf, a.nearBuf = a.nearBuf, a.bestBuf
		}
	}
	best := append([]int(nil), a.bestBuf...)
	a.take(best)
	return best, nil
}

// countPairwise computes the exact total pairwise distance of the set
// nearest(center, k) would gather, without gathering it: the ball
// radius from the index, interior per-axis marginals from slice counts,
// and only the boundary ring walked for the row-major tail. It writes
// only a.marg and a.radius; the index and busy bitmap are only read.
func (a *GenAlg) countPairwise(center, k int) int {
	c := a.g.Coord(center)
	nd := a.g.ND()
	last := nd - 1
	// The cutoff search leaves the interior ball's last-axis marginal in
	// a.marg[last]; the other axes are cleared and counted here.
	r, inner := a.ballCutoff(c, k, a.radius, a.marg[last])
	a.radius = r
	for ax := 0; ax < last; ax++ {
		lo, hi := a.g.ClipInterval(ax, c[ax]-r, c[ax]+r)
		m := a.marg[ax]
		for v := lo; v < hi; v++ {
			m[v] = 0
		}
	}
	if inner > 0 {
		for ax := 0; ax < last; ax++ {
			a.balls.AddMarginal(ax, c, r-1, a.marg[ax])
		}
	}
	if tail := k - inner; tail > 0 {
		a.tailMarginals(c, r, tail)
	}
	total := 0
	for ax := 0; ax < nd; ax++ {
		lo, hi := a.g.ClipInterval(ax, c[ax]-r, c[ax]+r)
		m := a.marg[ax]
		seen, prefix := 0, 0
		for v := lo; v < hi; v++ {
			cnt := m[v]
			if cnt == 0 {
				continue
			}
			total += cnt * (v*seen - prefix)
			seen += cnt
			prefix += v * cnt
		}
	}
	return total
}

// tailMarginals walks ring r around c in exactly AppendRing's
// row-major order, adding the first tail free processors to the
// marginals — the tie-breaking boundary of the candidate set. The ring
// is enumerated with flat loops and direct id arithmetic (no Coord
// calls, nothing materialized): the tail is the only part of a
// candidate the indexed scorer still walks, so it must cost a probe
// per cell and no more.
func (a *GenAlg) tailMarginals(c topo.Point, r, tail int) {
	if a.g.ND() == 2 {
		w, h := a.g.Dim(0), a.g.Dim(1)
		for dy := -r; dy <= r; dy++ {
			y := c[1] + dy
			if y < 0 || y >= h {
				continue
			}
			dx := r - abs(dy)
			row := y * w
			if x := c[0] - dx; x >= 0 && x < w && !a.busy[row+x] {
				a.marg[0][x]++
				a.marg[1][y]++
				if tail--; tail == 0 {
					return
				}
			}
			if dx > 0 {
				if x := c[0] + dx; x >= 0 && x < w && !a.busy[row+x] {
					a.marg[0][x]++
					a.marg[1][y]++
					if tail--; tail == 0 {
						return
					}
				}
			}
		}
		return
	}
	w, h, d := a.g.Dim(0), a.g.Dim(1), a.g.Dim(2)
	for dz := -r; dz <= r; dz++ {
		z := c[2] + dz
		if z < 0 || z >= d {
			continue
		}
		rem := r - abs(dz)
		zbase := z * w * h
		for dy := -rem; dy <= rem; dy++ {
			y := c[1] + dy
			if y < 0 || y >= h {
				continue
			}
			dx := rem - abs(dy)
			row := zbase + y*w
			if x := c[0] - dx; x >= 0 && x < w && !a.busy[row+x] {
				a.marg[0][x]++
				a.marg[1][y]++
				a.marg[2][z]++
				if tail--; tail == 0 {
					return
				}
			}
			if dx > 0 {
				if x := c[0] + dx; x >= 0 && x < w && !a.busy[row+x] {
					a.marg[0][x]++
					a.marg[1][y]++
					a.marg[2][z]++
					if tail--; tail == 0 {
						return
					}
				}
			}
		}
	}
}

// ballCutoff returns the smallest radius r whose clipped Manhattan
// ball around c holds at least k free processors — the cutoff
// nearest() stops at — together with the free count of the interior
// ball of radius r-1, whose per-slice counts along the last axis it
// writes into m (see FreeInBall2). It gallops outward or inward from
// the hint and binary-searches the bracket; with the previous
// candidate's radius as the hint the common case settles in a single
// fused two-ball count.
func (a *GenAlg) ballCutoff(c topo.Point, k, hint int, m []int) (r, inner int) {
	if hint < 0 {
		hint = 0
	}
	if hint > a.maxR {
		hint = a.maxR
	}
	cur, prev := a.balls.FreeInBall2(c, hint, m)
	var lo, hi int
	if cur >= k {
		if hint == 0 || prev < k {
			return hint, prev
		}
		// Shrink: gallop down while the smaller ball still holds k, then
		// binary-search the remaining bracket.
		lo, hi = 0, hint-1
		for step := 1; hi-step > 0; step *= 2 {
			if a.balls.FreeInBall(c, hi-step) < k {
				lo = hi - step + 1
				break
			}
			hi -= step
		}
	} else {
		// Grow: gallop up until a ball holds k (the ball of radius maxR
		// is the whole machine, which holds numFree >= k), then
		// binary-search.
		lo, hi = hint+1, hint+1
		for step := 1; hi < a.maxR && a.balls.FreeInBall(c, hi) < k; step *= 2 {
			lo = hi + 1
			hi += step
			if hi > a.maxR {
				hi = a.maxR
			}
		}
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if a.balls.FreeInBall(c, mid) >= k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	_, prev = a.balls.FreeInBall2(c, lo, m)
	return lo, prev
}

// nearest fills a.nearBuf with the k free processors closest to center
// (inclusive), gathered ring by Manhattan ring with row-major tie-breaking
// inside a ring.
func (a *GenAlg) nearest(center, k int) {
	c := a.g.Coord(center)
	ids := a.nearBuf[:0]
	maxR := 0
	for i := 0; i < a.g.ND(); i++ {
		maxR += a.g.Dim(i)
	}
	for r := 0; r <= maxR && len(ids) < k; r++ {
		a.ringBuf = a.g.AppendRing(a.ringBuf[:0], c, r)
		for _, id := range a.ringBuf {
			if a.busy[id] {
				continue
			}
			ids = append(ids, id)
			if len(ids) == k {
				break
			}
		}
	}
	a.nearBuf = ids
}

// totalPairwise computes the total pairwise hop distance of the node set
// using the allocator's persistent axis workspace: in O(k log k) on a
// plain grid by handling each axis independently. Torus distances are
// not separable this way, so they fall back to the quadratic
// computation.
func (a *GenAlg) totalPairwise(ids []int) int {
	if a.g.Torus() {
		return a.g.TotalPairwiseDist(ids)
	}
	nd := a.g.ND()
	for axis := 0; axis < nd; axis++ {
		a.axisBuf[axis] = a.axisBuf[axis][:0]
	}
	for _, id := range ids {
		p := a.g.Coord(id)
		for axis := 0; axis < nd; axis++ {
			a.axisBuf[axis] = append(a.axisBuf[axis], p[axis])
		}
	}
	total := 0
	for axis := 0; axis < nd; axis++ {
		total += sortedAxisSum(a.axisBuf[axis])
	}
	return total
}

// sortedAxisSum returns sum over i<j of |v[i]-v[j]| via sorting and prefix
// arithmetic.
func sortedAxisSum(v []int) int {
	sort.Ints(v)
	total, prefix := 0, 0
	for i, x := range v {
		total += i*x - prefix
		prefix += x
	}
	return total
}

// Random allocates uniformly random free processors. It is not in the
// paper but provides the dispersal worst case that the contention model
// can be sanity-checked against.
type Random struct {
	tracker
	rng     *stats.RNG
	freeBuf []int // persistent scratch for the shuffled free list
}

// NewRandom returns a Random allocator seeded with seed.
func NewRandom(g *topo.Grid, seed int64) *Random {
	return &Random{tracker: newTracker(g), rng: stats.NewRNG(seed)}
}

// Name implements Allocator.
func (a *Random) Name() string { return "random" }

// Allocate implements Allocator.
func (a *Random) Allocate(req Request) ([]int, error) {
	if err := a.check(req.Size); err != nil {
		return nil, err
	}
	free := a.freeBuf[:0]
	for id, b := range a.busy {
		if !b {
			free = append(free, id)
		}
	}
	a.freeBuf = free
	a.rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	ids := append([]int(nil), free[:req.Size]...)
	sort.Ints(ids)
	a.take(ids)
	return ids, nil
}

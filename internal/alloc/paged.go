package alloc

import (
	"fmt"

	"meshalloc/internal/binpack"
	"meshalloc/internal/curve"
	"meshalloc/internal/snap"
	"meshalloc/internal/topo"
)

// PagedPaging is the original Paging algorithm of Lo et al. with page
// size parameter s: the machine is divided into pages of side 2^s per
// axis, pages are ordered by a curve over the page grid, and jobs
// receive whole pages. The paper fixes s = 0 (package type Paging) to
// avoid the internal fragmentation this variant exhibits: a job of k
// processors holds ceil(k / pageVolume) pages, wasting the remainder of
// its last page.
//
// Pages that hang off a non-multiple-of-2^s machine are clipped, so edge
// pages may hold fewer processors than interior ones.
type PagedPaging struct {
	c       curve.Curve
	strat   binpack.Strategy
	s       int   // page size exponent
	pageOf  []int // processor id -> page index
	pages   [][]int
	packer  *binpack.Packer // over page indices in curve order
	numFree int             // free processors, counting whole free pages
}

// NewPagedPaging returns a Paging allocator with page size s (side 2^s
// per axis) using curve c over the page grid and selection strategy
// strat. It panics if s is negative, the page side exceeds any machine
// axis, or the curve cannot order the page grid: page geometry is static
// configuration.
func NewPagedPaging(g *topo.Grid, c curve.Curve, strat binpack.Strategy, s int) *PagedPaging {
	if s < 0 {
		panic(fmt.Sprintf("alloc: negative page size %d", s))
	}
	pageDims, err := pageGrid(g, s)
	if err != nil {
		panic(err.Error())
	}
	side := 1 << uint(s)
	nd := g.ND()

	p := &PagedPaging{c: c, strat: strat, s: s}
	// Page grid ordering: run the curve over the page grid.
	pageOrder, err := curve.GridOrder(c, pageDims)
	if err != nil {
		panic(fmt.Sprintf("alloc: %v", err))
	}
	// Page strides mirror the dense-id layout of the page grid.
	pageStride := make([]int, nd)
	numPages := 1
	for i := 0; i < nd; i++ {
		pageStride[i] = numPages
		numPages *= pageDims[i]
	}
	p.pages = make([][]int, numPages)
	p.pageOf = make([]int, g.Size())
	for id := 0; id < g.Size(); id++ {
		pt := g.Coord(id)
		page := 0
		for i := 0; i < nd; i++ {
			page += (pt[i] / side) * pageStride[i]
		}
		p.pageOf[id] = page
		p.pages[page] = append(p.pages[page], id)
	}
	p.packer = binpack.New(pageOrder)
	p.numFree = g.Size()
	return p
}

// pageGrid returns the extents of g's grid of 2^s-sided pages, or an
// error when the page side exceeds a machine axis.
func pageGrid(g *topo.Grid, s int) ([]int, error) {
	dims := g.Dims()
	for i, d := range dims {
		// d >> s == 0 is 1<<s > d without shifting 1 out of the word.
		if d>>uint(s) == 0 {
			return nil, fmt.Errorf("alloc: page side 2^%d exceeds machine axis %d (extent %d)", s, i, d)
		}
		dims[i] = (d + 1<<uint(s) - 1) >> uint(s)
	}
	return dims, nil
}

// Name implements Allocator.
func (p *PagedPaging) Name() string {
	return fmt.Sprintf("%s/%s/page%d", p.c.Name(), p.strat.String(), p.s)
}

// Allocate implements Allocator. The returned ids are the first
// req.Size processors of the allocated pages in page-curve order; the
// remainder of the final page is wasted until release, exactly the
// fragmentation the paper's s = 0 choice avoids.
func (p *PagedPaging) Allocate(req Request) ([]int, error) {
	if req.Size <= 0 {
		return nil, fmt.Errorf("alloc: invalid request size %d", req.Size)
	}
	if req.Size > p.numFree {
		return nil, ErrInsufficient
	}
	// Gather pages until the processor count is covered; edge pages may
	// be clipped, so the page count is not simply size over page volume.
	var pageIDs []int
	covered := 0
	for covered < req.Size {
		n, err := p.packer.Allocate(1, p.strat)
		if err != nil {
			// Whole pages exhausted even though numFree said otherwise:
			// put gathered pages back and refuse.
			p.packer.Release(pageIDs)
			return nil, ErrInsufficient
		}
		pageIDs = append(pageIDs, n[0])
		covered += len(p.pages[n[0]])
	}
	ids := make([]int, 0, req.Size)
	for _, pg := range pageIDs {
		for _, id := range p.pages[pg] {
			if len(ids) < req.Size {
				ids = append(ids, id)
			}
		}
		p.numFree -= len(p.pages[pg])
	}
	return ids, nil
}

// Release implements Allocator. The released ids identify their pages;
// whole pages (including wasted processors) return to the free pool. The
// page packer panics on a page that is already free (a double release).
func (p *PagedPaging) Release(ids []int) {
	seen := map[int]bool{}
	for _, id := range ids {
		if id < 0 || id >= len(p.pageOf) {
			panic(fmt.Sprintf("alloc: release of invalid id %d", id))
		}
		pg := p.pageOf[id]
		if seen[pg] {
			continue
		}
		seen[pg] = true
		p.packer.Release([]int{pg})
		p.numFree += len(p.pages[pg])
	}
}

// Occupy implements Allocator. The ids identify their pages exactly as
// in Release — every page an allocation held contributes at least one
// id, because Allocate gathers pages only while the request is not yet
// covered — and whole pages (including the wasted remainder) are
// re-marked busy. It panics on an invalid id, and the page packer panics
// on an already-busy page.
func (p *PagedPaging) Occupy(ids []int) {
	seen := map[int]bool{}
	for _, id := range ids {
		if id < 0 || id >= len(p.pageOf) {
			panic(fmt.Sprintf("alloc: occupy of invalid id %d", id))
		}
		pg := p.pageOf[id]
		if seen[pg] {
			continue
		}
		seen[pg] = true
		p.packer.Occupy([]int{pg})
		p.numFree -= len(p.pages[pg])
	}
}

// AppendState implements snap.Codec: the page packer's NextFit cursor.
func (p *PagedPaging) AppendState(w *snap.Writer) { p.packer.AppendState(w) }

// ReadState implements snap.Codec.
func (p *PagedPaging) ReadState(r *snap.Reader) error { return p.packer.ReadState(r) }

// AuditIndexes implements Allocator: the page packer's internal indexes
// and the processor-granular free count must agree.
func (p *PagedPaging) AuditIndexes() error {
	if err := p.packer.Audit(); err != nil {
		return err
	}
	free := 0
	for pg, ids := range p.pages {
		if p.packer.Free(pg) {
			free += len(ids)
		}
	}
	if free != p.numFree {
		return fmt.Errorf("alloc: free pages hold %d processors, cached numFree %d", free, p.numFree)
	}
	return nil
}

// NumFree implements Allocator: processors in free pages. Wasted
// processors inside partially-used pages are not free.
func (p *PagedPaging) NumFree() int { return p.numFree }

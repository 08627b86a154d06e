package alloc

import (
	"fmt"

	"meshalloc/internal/topo"
)

// Snapshot/restore support. A snapshot serializes only authoritative
// state — the job→nodes assignment and a handful of allocator cursors —
// and rebuilds every derived index on restore. The interfaces here are
// the contract between the engine's restore path and the allocators:
//
//   - Occupier re-marks a job's exact node set busy, as if Allocate had
//     returned it, with all internal indexes updated in lockstep.
//   - AuxState carries the small non-derivable extras some allocators
//     keep (a NextFit cursor, an RNG position) as raw words.
//   - Auditor cross-checks an allocator's redundant internal indexes,
//     feeding sim.Audit.
//
// Every Allocator in this package implements Occupier; AuxState and
// Auditor are optional and probed with type assertions.

// Occupier is implemented by allocators that can re-occupy an exact
// node set during snapshot restore. Callers must pass node sets that
// Allocate previously returned (valid ids, currently free); Occupy may
// panic on anything else, so restore paths validate ids first.
type Occupier interface {
	Occupy(ids []int)
}

// AuxState is implemented by allocators with internal state that is
// neither derivable from the busy set nor static configuration. The
// words are opaque to callers; SetAuxState errors on a word count or
// value that the allocator rejects.
type AuxState interface {
	AuxState() []uint64
	SetAuxState([]uint64) error
}

// Auditor is implemented by allocators that keep redundant internal
// indexes and can cross-check them against their ground-truth busy
// state. AuditIndexes returns nil when every index agrees.
type Auditor interface {
	AuditIndexes() error
}

// Occupy implements Occupier for the set-based allocators (MC, Gen-Alg
// and Random).
func (t *tracker) Occupy(ids []int) {
	for _, id := range ids {
		if id < 0 || id >= len(t.busy) || t.busy[id] {
			panic(fmt.Sprintf("alloc: occupy of busy or invalid id %d", id))
		}
	}
	t.take(ids)
}

// wholeMachine returns the half-open box covering the entire grid.
func wholeMachine(g *topo.Grid) (lo, hi topo.Point) {
	for i := 0; i < topo.MaxDims; i++ {
		hi[i] = 1
	}
	for i := 0; i < g.ND(); i++ {
		hi[i] = g.Dim(i)
	}
	return lo, hi
}

// AuditIndexes cross-checks the busy bitmap, the cached free count,
// and — when present — the box/ball occupancy indexes, by comparing
// each index's whole-machine free count against a direct recount.
func (t *tracker) AuditIndexes() error {
	n := 0
	for _, b := range t.busy {
		if !b {
			n++
		}
	}
	if n != t.numFree {
		return fmt.Errorf("alloc: counted %d free nodes, cached numFree %d", n, t.numFree)
	}
	if t.boxes != nil {
		lo, hi := wholeMachine(t.g)
		if got := t.boxes.FreeIn(lo, hi); got != n {
			return fmt.Errorf("alloc: box index counts %d free nodes, busy bitmap %d", got, n)
		}
	}
	if t.balls != nil {
		maxR := 0
		for i := 0; i < t.g.ND(); i++ {
			maxR += t.g.Dim(i)
		}
		var c topo.Point
		if got := t.balls.FreeInBall(c, maxR); got != n {
			return fmt.Errorf("alloc: ball index counts %d free nodes, busy bitmap %d", got, n)
		}
	}
	return nil
}

// Occupy implements Occupier: the packer re-marks the exact ranks.
func (p *Paging) Occupy(ids []int) { p.packer.Occupy(ids) }

// AuxState implements AuxState: the only non-derivable packer state is
// the NextFit resume rank (meaningful only under the NextFit strategy,
// but harmless to carry for all of them).
func (p *Paging) AuxState() []uint64 {
	return []uint64{uint64(p.packer.NextStart())}
}

// SetAuxState implements AuxState.
func (p *Paging) SetAuxState(words []uint64) error {
	if len(words) != 1 {
		return fmt.Errorf("alloc: paging aux state wants 1 word, got %d", len(words))
	}
	return p.packer.SetNextStart(int(int64(words[0])))
}

// AuditIndexes implements Auditor via the packer's free-map/bitset/
// count cross-check.
func (p *Paging) AuditIndexes() error { return p.packer.Audit() }

// AuxState implements AuxState: Random's draw sequence must resume
// where it left off, so the snapshot carries the RNG stream position.
func (a *Random) AuxState() []uint64 {
	return []uint64{a.rng.Pos()}
}

// SetAuxState implements AuxState by fast-forwarding a fresh generator
// to the recorded position.
func (a *Random) SetAuxState(words []uint64) error {
	if len(words) != 1 {
		return fmt.Errorf("alloc: random aux state wants 1 word, got %d", len(words))
	}
	return a.rng.SkipTo(words[0])
}

package alloc

import (
	"fmt"

	"meshalloc/internal/stats"
)

// Snapshot/restore support. A snapshot serializes only authoritative
// state — the job→nodes assignment and a handful of allocator cursors —
// and rebuilds every derived index on restore: Allocator.Occupy
// re-marks each job's exact node set busy, and AuxState, which
// allocators implement optionally and callers probe with a type
// assertion, carries the small non-derivable extras some allocators
// keep (a NextFit cursor, an RNG's state) as raw words.

// MaxAuxWords bounds the words any allocator's AppendAuxState appends:
// Random's RNG state is the longest.
const MaxAuxWords = stats.StateWords

// AuxState is implemented by allocators with internal state that is
// neither derivable from the busy set nor static configuration. The
// words are opaque to callers: AppendAuxState appends them to dst, and
// SetAuxState errors on a word count or value that the allocator
// rejects.
type AuxState interface {
	AppendAuxState(dst []uint64) []uint64
	SetAuxState(words []uint64) error
}

// Occupy implements Allocator for the tracker-based allocators (MC,
// Gen-Alg, Random and submesh first fit).
func (t *tracker) Occupy(ids []int) {
	for _, id := range ids {
		if id < 0 || id >= len(t.busy) || t.busy[id] {
			panic(fmt.Sprintf("alloc: occupy of busy or invalid id %d", id))
		}
	}
	t.take(ids)
}

// AuditIndexes implements Allocator: it cross-checks the busy bitmap,
// the cached free count, and — when present — every entry of the
// box/ball occupancy indexes against the bitmap (see Boxes.Audit and
// Balls.Audit), and the submesh row masks, node by node.
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
		if err := t.boxes.Audit(t.busy); err != nil {
			return err
		}
	}
	if t.balls != nil {
		if err := t.balls.Audit(t.busy); err != nil {
			return err
		}
	}
	if t.rows != nil {
		for id, busy := range t.busy {
			if free := t.rows.free(id); free == busy {
				return fmt.Errorf("alloc: node %d busy=%v but row bitmask free=%v", id, busy, free)
			}
		}
	}
	return nil
}

// Occupy implements Allocator: the packer re-marks the exact ranks.
func (p *Paging) Occupy(ids []int) { p.packer.Occupy(ids) }

// AppendAuxState implements AuxState: the only non-derivable packer
// state is the NextFit resume rank (meaningful only under the NextFit
// strategy, but harmless to carry for all of them).
func (p *Paging) AppendAuxState(dst []uint64) []uint64 {
	return append(dst, uint64(p.packer.NextStart()))
}

// SetAuxState implements AuxState.
func (p *Paging) SetAuxState(words []uint64) error {
	if len(words) != 1 {
		return fmt.Errorf("alloc: paging aux state wants 1 word, got %d", len(words))
	}
	return p.packer.SetNextStart(int(int64(words[0])))
}

// AuditIndexes implements Allocator via the packer's free-map/bitset/
// count cross-check.
func (p *Paging) AuditIndexes() error { return p.packer.Audit() }

// AppendAuxState implements AuxState: Random's draw sequence must
// resume where it left off, so the snapshot carries its RNG's state.
func (a *Random) AppendAuxState(dst []uint64) []uint64 { return a.rng.AppendState(dst) }

// SetAuxState implements AuxState.
func (a *Random) SetAuxState(words []uint64) error { return a.rng.SetState(words) }

package alloc

import (
	"fmt"

	"meshalloc/internal/snap"
)

// Snapshot/restore support. A snapshot serializes only authoritative
// state — the job→nodes assignment and a handful of allocator cursors —
// and rebuilds every derived index on restore: Allocator.Occupy
// re-marks each job's exact node set busy. The allocators that keep
// state no busy set determines (Paging's NextFit cursor, Random's RNG)
// implement snap.Codec, which callers probe with a type assertion;
// the allocator's name fixes whether it is one.

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

// AppendState implements snap.Codec: the packer's NextFit cursor.
func (p *Paging) AppendState(w *snap.Writer) { p.packer.AppendState(w) }

// ReadState implements snap.Codec.
func (p *Paging) ReadState(r *snap.Reader) error { return p.packer.ReadState(r) }

// AuditIndexes implements Allocator via the packer's free-set/count
// cross-check.
func (p *Paging) AuditIndexes() error { return p.packer.Audit() }

// AppendState implements snap.Codec: Random's draw sequence must
// resume where it left off, so the snapshot carries its RNG's state.
func (a *Random) AppendState(w *snap.Writer) { a.rng.AppendState(w) }

// ReadState implements snap.Codec.
func (a *Random) ReadState(r *snap.Reader) error { return a.rng.ReadState(r) }

package alloc

import (
	"testing"

	"meshalloc/internal/topo"
)

// Tests for the FaultAware masking path: a downed node must be
// invisible to every allocator family — the set-based trackers, the
// paging bin-packers, and the submesh word-scan — and repairing it must
// restore exactly the pre-failure state.

// faultSpecs are the allocator specs that implement FaultAware. The
// paged forms and buddy are absent deliberately: their free ledgers
// track blocks, not nodes, so they cannot mask a single dead node.
var faultSpecs = []string{
	"hilbert/bestfit", "scurve",
	"mc", "mc1x1", "genalg", "random", "submesh",
}

// TestMarkDownExcludesNodes downs a scattered set of nodes and drives
// an allocate/release churn: no allocation may include a downed node,
// and NumFree must account for the mask throughout.
func TestMarkDownExcludesNodes(t *testing.T) {
	for _, spec := range faultSpecs {
		t.Run(spec, func(t *testing.T) {
			g := topo.New([]int{8, 8})
			a, err := Spec(g, spec, 7)
			if err != nil {
				t.Fatal(err)
			}
			fa, ok := a.(FaultAware)
			if !ok {
				t.Fatalf("%s does not implement FaultAware", spec)
			}
			down := []int{0, 13, 27, 42, 63}
			downSet := map[int]bool{}
			for _, id := range down {
				fa.MarkDown(id)
				downSet[id] = true
			}
			if a.NumFree() != g.Size()-len(down) {
				t.Fatalf("NumFree = %d, want %d", a.NumFree(), g.Size()-len(down))
			}
			x := xorshift(11)
			var live [][]int
			for step := 0; step < 200; step++ {
				if x.intn(3) != 0 {
					size := 1 + x.intn(8)
					ids, err := a.Allocate(Request{Size: size})
					if err != nil {
						continue
					}
					for _, id := range ids {
						if downSet[id] {
							t.Fatalf("step %d: allocated downed node %d", step, id)
						}
					}
					live = append(live, ids)
				} else if len(live) > 0 {
					i := x.intn(len(live))
					a.Release(live[i])
					live = append(live[:i], live[i+1:]...)
				}
			}
			for _, ids := range live {
				a.Release(ids)
			}
			for _, id := range down {
				fa.MarkUp(id)
			}
			if a.NumFree() != g.Size() {
				t.Fatalf("NumFree after repair = %d, want %d", a.NumFree(), g.Size())
			}
			// The whole machine must be allocatable again.
			if _, err := a.Allocate(Request{Size: g.Size()}); err != nil {
				t.Fatalf("full-machine allocation after repair: %v", err)
			}
		})
	}
}

// TestSubmeshMaskMatchesBusy pins the submesh row-bit masking to the
// tracker semantics: marking nodes down must yield bit-identical
// placements to an allocator where the same nodes are busy.
func TestSubmeshMaskMatchesBusy(t *testing.T) {
	x := xorshift(97)
	for trial := 0; trial < 20; trial++ {
		m := topo.New([]int{3 + x.intn(10), 3 + x.intn(10)})
		masked := NewSubmeshFirstFit(m)
		busy := NewSubmeshFirstFit(m)
		var down []int
		for id := 0; id < m.Size(); id++ {
			if x.intn(8) == 0 {
				down = append(down, id)
			}
		}
		for _, id := range down {
			masked.MarkDown(id)
		}
		if len(down) > 0 {
			busy.take(down)
		}
		for step := 0; step < 30; step++ {
			size := 1 + x.intn(m.Size()/2)
			got, err1 := masked.Allocate(Request{Size: size})
			want, err2 := busy.Allocate(Request{Size: size})
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("trial %d step %d: error mismatch %v vs %v", trial, step, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if !sameIDs(got, want) {
				t.Fatalf("trial %d step %d: ids %v vs %v", trial, step, got, want)
			}
			masked.Release(got)
			busy.Release(want)
		}
		for _, id := range down {
			masked.MarkUp(id)
		}
		if masked.NumFree() != m.Size() {
			t.Fatalf("submesh NumFree after repair = %d", masked.NumFree())
		}
	}
}

// TestMCMaskMatchesNaive interleaves mask churn with a same-size
// allocate/release workload: the indexed scorer must stay bit-identical
// to the reference scorer through every MarkDown/MarkUp, which reach the
// box index through the shared busy-set bookkeeping.
func TestMCMaskMatchesNaive(t *testing.T) {
	for _, oneByOne := range []bool{false, true} {
		x := xorshift(171)
		for trial := 0; trial < 15; trial++ {
			g := equivGrid(x.next())
			indexed := NewMC(g)
			indexed.oneByOne = oneByOne
			plain := newMCNaive(g, oneByOne)
			size := 1 + x.intn(6)
			var live [][]int
			downSet := map[int]bool{}
			for step := 0; step < 60; step++ {
				switch x.intn(5) {
				case 0: // toggle a node's availability
					id := x.intn(g.Size())
					if downSet[id] {
						indexed.MarkUp(id)
						plain.MarkUp(id)
						delete(downSet, id)
					} else if !indexed.busy[id] {
						indexed.MarkDown(id)
						plain.MarkDown(id)
						downSet[id] = true
					}
				case 1, 2, 3:
					if indexed.NumFree() < size {
						continue
					}
					got, err1 := indexed.Allocate(Request{Size: size})
					want, err2 := plain.Allocate(Request{Size: size})
					if (err1 == nil) != (err2 == nil) {
						t.Fatalf("trial %d step %d: error mismatch %v vs %v", trial, step, err1, err2)
					}
					if err1 != nil {
						continue
					}
					if !sameIDs(got, want) {
						t.Fatalf("oneByOne=%v trial %d step %d: ids %v vs %v",
							oneByOne, trial, step, got, want)
					}
					live = append(live, got)
				default:
					if len(live) > 0 {
						i := x.intn(len(live))
						indexed.Release(live[i])
						plain.Release(live[i])
						live = append(live[:i], live[i+1:]...)
					}
				}
				if indexed.NumFree() != plain.NumFree() {
					t.Fatalf("trial %d step %d: NumFree %d vs %d",
						trial, step, indexed.NumFree(), plain.NumFree())
				}
			}
		}
	}
}

// TestMarkDownPanics pins the contract: masking a busy node and
// repairing a healthy one are engine bugs, caught loudly.
func TestMarkDownPanics(t *testing.T) {
	g := topo.New([]int{4, 4})
	a := NewMC(g)
	ids, err := a.Allocate(Request{Size: 4})
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("MarkDown(busy)", func() { a.MarkDown(ids[0]) })
	mustPanic("MarkUp(free)", func() { a.MarkUp(15) })
}

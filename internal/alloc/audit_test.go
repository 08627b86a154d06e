package alloc

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"meshalloc/internal/topo"
)

// bumpEntry adds one to entry i of the int table that path leads to
// inside an occupancy index (a field name, or an array position), past
// the index's unexported fields: a drift no Take or Release can make,
// as a stray write would leave it.
func bumpEntry(index any, i int, path ...any) {
	v := reflect.ValueOf(index).Elem()
	for _, step := range path {
		switch s := step.(type) {
		case string:
			v = v.FieldByName(s)
		case int:
			v = v.Index(s)
		}
	}
	unsafe.Slice((*int)(v.UnsafePointer()), v.Len())[i]++
}

// TestAuditIndexesCatchesDriftedEntry drifts one interior entry of ball
// family 0, which only AddMarginal reads, and one of the box index, and
// requires AuditIndexes to report each. A whole-machine free count
// reads only the far edge of each box row or plane and only the ball
// family that slices the last axis, so it misses both.
func TestAuditIndexesCatchesDriftedEntry(t *testing.T) {
	for _, dims := range [][]int{{8, 7, 6}, {9, 7}} {
		g := topo.New(dims)
		// Entry (x, y) of box row or plane 3, and entry (u, w) or w of
		// family 0's slice 3, all away from every edge of their tables.
		n0, n1 := g.Dim(0), g.Dim(1)
		boxEntry := 3*(n0+1) + n0/2
		var ballEntry int
		if g.ND() == 3 {
			plane := (n0 + 1) * (n1 + 1)
			boxEntry = 3*plane + (n1/2)*(n0+1) + n0/2
			s := n1 + g.Dim(2) - 1
			ballEntry = 3*(s+1)*(s+1) + (s/2)*(s+1) + s/2
		} else {
			ballEntry = 3*(n1+1) + n1/2
		}
		for _, c := range []struct {
			name  string
			a     Allocator
			drift func(a Allocator)
		}{
			{"balls/family0", NewGenAlg(g), func(a Allocator) {
				bumpEntry(a.(*GenAlg).balls, ballEntry, "fams", 0, "pref")
			}},
			{"boxes", NewMC(g), func(a Allocator) {
				field := "rows"
				if g.ND() == 3 {
					field = "planes"
				}
				bumpEntry(a.(*MC).boxes, boxEntry, field)
			}},
		} {
			t.Run(fmt.Sprintf("%v/%s", dims, c.name), func(t *testing.T) {
				sparseState(g, 3, 10, c.a.(interface {
					take(ids []int)
					MarkDown(id int)
				}))
				if err := c.a.AuditIndexes(); err != nil {
					t.Fatalf("audit of a consistent state: %v", err)
				}
				c.drift(c.a)
				if err := c.a.AuditIndexes(); err == nil {
					t.Fatal("AuditIndexes passed a drifted interior entry")
				} else {
					t.Log(err)
				}
			})
		}
	}
}

package alloc

import (
	"testing"

	"meshalloc/internal/topo"
)

// FuzzSpec checks the allocator spec parser never panics on arbitrary
// input and that every accepted spec produces a working allocator whose
// Name round-trips.
func FuzzSpec(f *testing.F) {
	for _, s := range append(Fig11Specs(), "buddy", "submesh", "random",
		"hilbert/bestfit/page2", "optcurve/bestfit", "zorder", "moore/nextfit") {
		f.Add(s)
	}
	f.Add("hilbert/bestfit/page")
	f.Add("///")
	f.Add("")
	m := topo.New([]int{8, 8})
	f.Fuzz(func(t *testing.T, spec string) {
		a, err := Spec(m, spec, 1)
		if err != nil {
			return
		}
		if got := a.Name(); got != spec {
			t.Fatalf("Spec(%q).Name() = %q", spec, got)
		}
		ids, err := a.Allocate(Request{Size: 5})
		if err != nil {
			t.Fatalf("%q: fresh allocator refused size 5: %v", spec, err)
		}
		if len(ids) != 5 {
			t.Fatalf("%q: got %d ids", spec, len(ids))
		}
		a.Release(ids)
		if a.NumFree() != m.Size() {
			t.Fatalf("%q: NumFree %d after release", spec, a.NumFree())
		}
	})
}

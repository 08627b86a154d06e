package meshalloc

import (
	"meshalloc/internal/alloc"
	"meshalloc/internal/comm"
	"meshalloc/internal/curve"
	"meshalloc/internal/topo"
)

// Mesh is a machine description: the grid the simulator runs on. NewMesh
// builds the 2-D meshes of the paper; Dim(0) is the width and Dim(1) the
// height.
type Mesh = topo.Grid

// NewMesh returns a width x height mesh.
func NewMesh(width, height int) *Mesh { return topo.New([]int{width, height}) }

// Allocator assigns processor sets to jobs; see the alloc package.
type Allocator = alloc.Allocator

// AllocRequest asks an Allocator for processors.
type AllocRequest = alloc.Request

// NewAllocator builds the allocator named by spec ("mc", "mc1x1",
// "genalg", "random", "<curve>", or "<curve>/<strategy>") over m.
func NewAllocator(m *Mesh, spec string, seed int64) (Allocator, error) {
	return alloc.Spec(m, spec, seed)
}

func allocSpecs() []string { return alloc.Specs() }

// Curves returns the available mesh linearizations.
func Curves() []string { return curve.All() }

// Patterns returns the available communication patterns.
func Patterns() []string { return comm.All() }

// CurveOrder returns the node ids of a w x h mesh in the order of the
// named curve. It refuses a mesh the curve cannot order; see
// curve.CheckDims.
func CurveOrder(name string, w, h int) ([]int, error) {
	c, err := curve.ByName(name)
	if err != nil {
		return nil, err
	}
	return curve.GridOrder(c, []int{w, h})
}

// Command curveviz renders a mesh linearization as a grid of curve ranks
// (paper Figures 2 and 6) and prints its locality metrics.
//
//	curveviz -curve hilbert -mesh 16x22
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"meshalloc/internal/curve"
	"meshalloc/internal/topo"
)

func main() {
	var (
		name     = flag.String("curve", "hilbert", "curve name (rowmajor, scurve, scurve-long, hilbert, hindex)")
		meshSpec = flag.String("mesh", "8x8", "mesh dimensions WxH")
		list     = flag.Bool("list", false, "list available curves and exit")
	)
	flag.Parse()

	if *list {
		for _, n := range curve.All() {
			fmt.Println(n)
		}
		return
	}

	dims, err := topo.ParseDims(*meshSpec)
	if err == nil && len(dims) != 2 {
		err = fmt.Errorf("bad mesh spec %q: curves render on 2-D meshes, want WxH", *meshSpec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "curveviz: %v\n", err)
		os.Exit(1)
	}
	w, h := dims[0], dims[1]
	c, err := curve.ByName(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "curveviz: %v\nvalid -curve values: %s (or proj2d-<curve>)\n",
			err, strings.Join(curve.All(), ", "))
		os.Exit(1)
	}
	order, err := curve.GridOrder(c, dims)
	if err != nil {
		fmt.Fprintf(os.Stderr, "curveviz: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s on %dx%d:\n\n%s\n", c.Name(), w, h, curve.Render(order, w, h))
	rep := curve.Locality(order, w, h)
	fmt.Printf("locality: max step %d, avg step %.3f, gaps %d, max adjacency stretch %d\n",
		rep.MaxStep, rep.AvgStep, rep.Gaps, rep.MaxAdjacencyStretch)
}

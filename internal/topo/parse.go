package topo

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseDims parses a machine shape written as two to MaxDims extents
// joined by 'x' ("16x22", "8x8x8") and validates it with CheckDims, so
// every shape it returns is one New can build.
func ParseDims(s string) ([]int, error) {
	parts := strings.Split(s, "x")
	if len(parts) < 2 || len(parts) > MaxDims {
		return nil, fmt.Errorf("bad mesh spec %q, want WxH or WxHxD", s)
	}
	dims := make([]int, len(parts))
	for i, p := range parts {
		d, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad mesh spec %q: extent %q", s, p)
		}
		dims[i] = d
	}
	if err := CheckDims(dims); err != nil {
		return nil, fmt.Errorf("bad mesh spec %q: %v", s, err)
	}
	return dims, nil
}

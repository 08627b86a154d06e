package topo

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestParseDims(t *testing.T) {
	for spec, want := range map[string][]int{
		"16x22":     {16, 22},
		"8x8x8":     {8, 8, 8},
		"3x4x2x5":   {3, 4, 2, 5},
		"65535x32":  {MaxExtent, 32},
		"128x128x2": {128, 128, 2},
	} {
		got, err := ParseDims(spec)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("ParseDims(%q) = %v, %v; want %v", spec, got, err, want)
		}
	}
	for _, spec := range []string{"", "16", "x", "16x", "16x0", "16x-2", "4x4x4x4x4", "a x b",
		"70000x2", "100000x100000", "65535x33", "9223372036854775807x2", "16x22x"} {
		if dims, err := ParseDims(spec); err == nil {
			t.Errorf("ParseDims(%q) = %v, want an error", spec, dims)
		}
	}
}

// FuzzParseDims: ParseDims never panics, and every shape it accepts
// passes CheckDims and prints back to a spec that parses to itself.
func FuzzParseDims(f *testing.F) {
	for _, s := range []string{"16x22", "8x8x8", "3x4x2x5", "70000x2", "100000x100000", "16", "0x4", "+4x04", "x"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		dims, err := ParseDims(spec)
		if err != nil {
			return
		}
		if err := CheckDims(dims); err != nil {
			t.Fatalf("ParseDims(%q) = %v, which CheckDims rejects: %v", spec, dims, err)
		}
		parts := make([]string, len(dims))
		for i, d := range dims {
			parts[i] = strconv.Itoa(d)
		}
		back, err := ParseDims(strings.Join(parts, "x"))
		if err != nil || !reflect.DeepEqual(back, dims) {
			t.Fatalf("ParseDims(%q) = %v does not round-trip: %v, %v", spec, dims, back, err)
		}
	})
}

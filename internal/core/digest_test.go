package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"
)

// renderDigests pins the rendered text of every paper figure and
// extension table at Options{Jobs: 600}. A change that alters a printed
// number must re-pin the digest and say why.
var renderDigests = map[string]string{
	"1":              "8d122b8455f5ccdc",
	"6":              "a7e045c2cd83a471",
	"7":              "f654d4e9a0599d72",
	"8":              "b39cb679833bfc3d",
	"9":              "d7f73335dc7c07c8",
	"10":             "b1118e211df4bdb9",
	"11":             "c9a914813f190f9e",
	"ext-contiguous": "8bbfc0025a9a5cf3",
	"ext-scheduler":  "ff78fb4c6cbf67f6",
	"ext-routing":    "4aa3e60c0035e931",
	"ext-mixed":      "d88a2df4da966b36",
	"ext-cube":       "51797fe2f3464275",
	"ext-cube3d":     "1a05bdb082564593",
	"ext-steady":     "9bf090be09a3dbb9",
	"ext-faults":     "c62beeba90771bc5",
}

func renderDigest(t *testing.T, fig *Figure) string {
	t.Helper()
	var buf bytes.Buffer
	if err := fig.Render(&buf); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestRenderedFiguresArePinned renders figures 1 and 6-11 and every
// extension table and compares an FNV-64a digest of each with its pin.
func TestRenderedFiguresArePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every figure and extension (~6 s)")
	}
	o := Options{Jobs: 600}
	check := func(id string, fig *Figure, err error) {
		if err != nil {
			t.Errorf("%s: %v", id, err)
			return
		}
		if got := renderDigest(t, fig); got != renderDigests[id] {
			t.Errorf("%s: render digest %s, pinned %s", id, got, renderDigests[id])
		}
	}
	for _, id := range AllFigureIDs() {
		fig, err := FigureByID(id, o)
		check(id, fig, err)
	}
	for _, id := range AllExtensionIDs() {
		fig, err := ExtensionByID(id, o)
		check(id, fig, err)
	}
}

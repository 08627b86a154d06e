package core

import (
	"strconv"
	"strings"
	"testing"
)

func TestExtContiguousQuantifiesUtilizationLoss(t *testing.T) {
	// The utilization gap needs a saturated queue to show; use a longer
	// trace than the other structure tests.
	fig, err := ExtContiguous(Options{Jobs: 600, TimeScale: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tab := fig.Tables[0]
	if len(tab.Rows) != 5 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	util := map[string]float64{}
	contig := map[string]string{}
	for _, row := range tab.Rows {
		u, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad utilization cell %q", row[3])
		}
		util[row[0]] = u
		contig[row[0]] = row[4]
	}
	// The paper's Section 2 claim: convex-only allocation costs
	// utilization. The buddy system must run the machine emptier than
	// the noncontiguous hilbert/bestfit.
	if util["buddy"] >= util["hilbert/bestfit"] {
		t.Errorf("buddy utilization %.1f should trail hilbert/bestfit %.1f",
			util["buddy"], util["hilbert/bestfit"])
	}
	// And the contiguous baselines are 100% contiguous by construction.
	for _, spec := range []string{"buddy", "submesh"} {
		if contig[spec] != "100.0%" {
			t.Errorf("%s contiguity = %s", spec, contig[spec])
		}
	}
}

func TestExtSchedulerStructure(t *testing.T) {
	fig, err := ExtScheduler(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	tab := fig.Tables[0]
	if len(tab.Rows) != 9 {
		t.Fatalf("%d rows, want 9 allocators", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if !strings.HasSuffix(row[3], "%") {
			t.Fatalf("gain cell %q not a percentage", row[3])
		}
	}
}

func TestExtRoutingStructure(t *testing.T) {
	fig, err := ExtRouting(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Tables[0].Rows) != 6 {
		t.Fatalf("%d rows, want 2 allocators x 3 routings", len(fig.Tables[0].Rows))
	}
}

func TestExtMixedRanksAllAllocators(t *testing.T) {
	fig, err := ExtMixed(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	tab := fig.Tables[0]
	if len(tab.Rows) != 9 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// Sorted ascending by response.
	prev := -1.0
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("bad response cell %q", row[1])
		}
		if v < prev {
			t.Fatal("rows not sorted by response")
		}
		prev = v
	}
}

func TestExtensionByID(t *testing.T) {
	for _, id := range AllExtensionIDs() {
		if id[:4] != "ext-" {
			t.Fatalf("extension id %q lacks prefix", id)
		}
	}
	if _, err := ExtensionByID("ext-nope", Options{}); err == nil {
		t.Fatal("unknown extension should fail")
	}
	fig, err := ExtensionByID("ext-mixed", quickOpt())
	if err != nil || fig.ID != "ext-mixed" {
		t.Fatalf("ExtensionByID: %v, %v", fig, err)
	}
}

// TestExtCubeRanksCurves checks the 3-D churn study: four rows, and the
// Hilbert curve and both shell-scoring allocators allocate more
// compactly than the 3-D snake.
func TestExtCubeRanksCurves(t *testing.T) {
	fig, err := ExtCube(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	rows := fig.Tables[0].Rows
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	spread := map[string]float64{}
	for _, row := range rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("%s: %v", row[0], err)
		}
		if row[2] == "0" {
			t.Fatalf("%s made no allocations", row[0])
		}
		spread[row[0]] = v
	}
	for _, spec := range []string{"hilbert", "mc1x1", "genalg"} {
		if spread[spec] >= spread["scurve"] {
			t.Errorf("%s (%.3f) should beat scurve (%.3f)", spec, spread[spec], spread["scurve"])
		}
	}
}

func TestExtCube3DStructure(t *testing.T) {
	fig, err := ExtCube3D(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	tab := fig.Tables[0]
	if want := len(cube3DNative) + len(cube3DProjected); len(tab.Rows) != want {
		t.Fatalf("%d rows, want %d", len(tab.Rows), want)
	}
	for _, row := range tab.Rows {
		if !strings.HasSuffix(row[3], "%") {
			t.Fatalf("contiguity cell %q not a percentage", row[3])
		}
	}
	penalties := 0
	for _, n := range fig.Notes {
		if strings.Contains(n, "projection penalty") {
			penalties++
		}
	}
	if penalties != 3 {
		t.Fatalf("%d projection-penalty notes, want 3", penalties)
	}
}

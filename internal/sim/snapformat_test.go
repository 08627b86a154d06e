package sim

import (
	"fmt"
	"hash/fnv"
	"testing"

	"meshalloc/internal/trace"
)

// snapshotPins are FNV-64a hashes of the Snapshot bytes each golden and
// resume configuration writes halfway through its run. Queued events
// are written in (t, seq) order, so the bytes do not depend on the
// event queue's layout. The pins were re-recorded when that order
// replaced the heap array's: each blob kept its earlier length, and
// sorting the event records of the earlier blobs by (t, seq) gave
// exactly these bytes. TestRestoreAcceptsEventsInAnyOrder proves that
// checkpoints written in the earlier order still resume.
var snapshotPins = map[string]string{
	"golden/fig7-16x22-alltoall-hilbert": "07ef508e8c4c0934",
	"golden/fig8-16x16-nbody-mc1x1":      "014ef6414b6d57e6",
	"golden/cube3d-8x8x8-nbody-hilbert":  "e119a729623c4657",
	"golden/easy-16x16-alltoall-hilbert": "3b3704c1bcfff82e",
	"golden/seq-16x22-random-scurve":     "35838b5e016f3895",
	"golden/torus-8x8-random-hilbert":    "61874478222f86f8",
	"golden/torus-4x4x4-nbody-mc1x1":     "4fc92c0b24fd1a97",
	"resume/hilbert-alltoall":            "321b6cb9b80fc07e",
	"resume/random-pattern-random-alloc": "992bf910033bfb5c",
	"resume/easy-nextfit":                "adf0fafa90702b9f",
	"resume/faulty-mc1x1":                "a023633eb485994a",
}

// TestSnapshotFormatPinned cuts every golden and resume configuration
// at half its event count and requires the pinned hash of the snapshot
// bytes.
func TestSnapshotFormatPinned(t *testing.T) {
	type pinCase struct {
		name string
		cfg  Config
		tr   *trace.Trace
	}
	var cases []pinCase
	for _, tc := range goldenCases {
		tr := trace.NewSDSC(trace.SDSCConfig{Jobs: tc.jobs, MaxSize: tc.max, Seed: 1}).FilterMaxSize(tc.max)
		cases = append(cases, pinCase{"golden/" + tc.name, tc.cfg, tr})
	}
	for _, tc := range resumeCases {
		cases = append(cases, pinCase{"resume/" + tc.name, tc.cfg, tc.tr()})
	}
	if len(cases) != len(snapshotPins) {
		t.Fatalf("%d cases for %d pins", len(cases), len(snapshotPins))
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			blob := snapshotAt(t, c.cfg, c.tr, countEvents(t, c.cfg, c.tr)/2)
			h := fnv.New64a()
			h.Write(blob)
			got := fmt.Sprintf("%016x", h.Sum64())
			if want := snapshotPins[c.name]; got != want {
				t.Fatalf("snapshot hash %s, want %s (%d bytes): the checkpoint format changed", got, want, len(blob))
			}
		})
	}
}

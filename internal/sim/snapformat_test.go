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
// event queue's layout. The pins were re-recorded with container
// version 4, which writes no state restore can derive: no row quota or
// estimated end, no busy-processor count or kill total, and no held
// message for a schedule generator, which writes its cursor only.
var snapshotPins = map[string]string{
	"golden/fig7-16x22-alltoall-hilbert": "85e92de637901c45",
	"golden/fig8-16x16-nbody-mc1x1":      "682325e4b04fe131",
	"golden/cube3d-8x8x8-nbody-hilbert":  "7352a88aef63b90f",
	"golden/easy-16x16-alltoall-hilbert": "09081cc6350c163f",
	"golden/seq-16x22-random-scurve":     "2476eb6a15f17153",
	"golden/torus-8x8-random-hilbert":    "4b13b4eb30c5e405",
	"golden/torus-4x4x4-nbody-mc1x1":     "58ccd494469579bc",
	"resume/hilbert-alltoall":            "6ede7fb7e96bdeae",
	"resume/random-pattern-random-alloc": "ca62f9ee4d192f84",
	"resume/easy-nextfit":                "afce2f106c7a05cc",
	"resume/faulty-mc1x1":                "7888ab357999afff",
	"resume/mixed-pattern":               "6d7e9f8328310b6d",
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

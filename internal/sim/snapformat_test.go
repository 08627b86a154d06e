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
// version 3, in which each part writes itself through its codec: a
// generator its pattern's name, cursor and held message but not its
// job size, the allocator its state without a word count, and the
// engine no copy of the fault stream's next event. The engine RNG's
// state moved after the job store. The mixed-pattern pin was recorded
// later, under the same version, before its pattern's schedules were
// memoized like the other patterns'.
var snapshotPins = map[string]string{
	"golden/fig7-16x22-alltoall-hilbert": "a1ef2fbf69b0633c",
	"golden/fig8-16x16-nbody-mc1x1":      "a10b4568af8a9a2e",
	"golden/cube3d-8x8x8-nbody-hilbert":  "5cef96011f3f3e78",
	"golden/easy-16x16-alltoall-hilbert": "ed911fcb7b80f51e",
	"golden/seq-16x22-random-scurve":     "7ba81e443c08e5eb",
	"golden/torus-8x8-random-hilbert":    "c2106e604709ec7f",
	"golden/torus-4x4x4-nbody-mc1x1":     "8c14a39e04ef0976",
	"resume/hilbert-alltoall":            "5f1448dbda43b321",
	"resume/random-pattern-random-alloc": "533aa0dfa7c4bdcf",
	"resume/easy-nextfit":                "3a912fc1750e8d35",
	"resume/faulty-mc1x1":                "9c0be680afd05581",
	"resume/mixed-pattern":               "9d921ac2816bddb4",
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

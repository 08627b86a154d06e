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
// version 2, which writes each RNG's state where version 1 wrote its
// draw count, a generator's held ranks only while it holds a message,
// and a schedule's cursor where the generator keeps it.
var snapshotPins = map[string]string{
	"golden/fig7-16x22-alltoall-hilbert": "6e25fe6b69ced71e",
	"golden/fig8-16x16-nbody-mc1x1":      "f6157be77e73d842",
	"golden/cube3d-8x8x8-nbody-hilbert":  "4b2346c47bc1170a",
	"golden/easy-16x16-alltoall-hilbert": "6f181c3418c132be",
	"golden/seq-16x22-random-scurve":     "a0ac67d70124b074",
	"golden/torus-8x8-random-hilbert":    "baa6bde556eff23b",
	"golden/torus-4x4x4-nbody-mc1x1":     "6729fd8cce51cd94",
	"resume/hilbert-alltoall":            "dd94ea5b2f12a8ee",
	"resume/random-pattern-random-alloc": "a0c32f9819c32f43",
	"resume/easy-nextfit":                "e618ab49132ce4cc",
	"resume/faulty-mc1x1":                "46117d022cee0168",
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

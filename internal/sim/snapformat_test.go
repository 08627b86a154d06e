package sim

import (
	"fmt"
	"hash/fnv"
	"testing"

	"meshalloc/internal/trace"
)

// snapshotPins are FNV-64a hashes of the Snapshot bytes each golden and
// resume configuration writes halfway through its run. They were
// recorded while events still carried their arrival job inline, before
// queued arrivals moved into the engine's slot slab. Byte-equal
// snapshots mean a checkpoint written by that earlier layout restores
// unchanged, and the resume suite already proves restored runs are
// bit-identical.
var snapshotPins = map[string]string{
	"golden/fig7-16x22-alltoall-hilbert": "e8061f65089d970a",
	"golden/fig8-16x16-nbody-mc1x1":      "95b621a1c78cf72e",
	"golden/cube3d-8x8x8-nbody-hilbert":  "3f609fe0aec32dba",
	"golden/easy-16x16-alltoall-hilbert": "ac7f533b6e5b5c3b",
	"golden/seq-16x22-random-scurve":     "c47ebea5093c50b5",
	"resume/hilbert-alltoall":            "15a69188047c5e27",
	"resume/random-pattern-random-alloc": "763b44bbea9167d2",
	"resume/easy-nextfit":                "9b49609c9f10da24",
	"resume/faulty-mc1x1":                "4dba35ac38f0ed42",
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

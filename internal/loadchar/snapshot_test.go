package loadchar

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"bioperfload/internal/bpred"
)

// TestSnapshotRoundTrip proves a snapshot — including a gob
// encode/decode cycle, the form the artifact store persists — renders
// byte-identical reports to the live analysis it was taken from.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, name := range []string{"hmmsearch", "predator"} {
		t.Run(name, func(t *testing.T) {
			prog, live, _ := captureSlabs(t, name)
			want := RenderProfile(name, "test", live, 10)

			snap := live.Snapshot()
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
				t.Fatal(err)
			}
			var decoded Snapshot
			if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
				t.Fatal(err)
			}
			restored, err := FromSnapshot(prog, &decoded)
			if err != nil {
				t.Fatal(err)
			}
			got := RenderProfile(name, "test", restored, 10)
			if got != want {
				t.Errorf("restored profile differs:\n--- live ---\n%s\n--- restored ---\n%s", want, got)
			}
			// The candidate selection walks different report paths than
			// RenderProfile; check it agrees too.
			lc := live.Candidates(0.01, 0.05, 0.2)
			rc := restored.Candidates(0.01, 0.05, 0.2)
			if len(lc) != len(rc) {
				t.Fatalf("candidate counts differ: %d vs %d", len(lc), len(rc))
			}
			for i := range lc {
				if lc[i] != rc[i] {
					t.Errorf("candidate %d differs: %+v vs %+v", i, lc[i], rc[i])
				}
			}
		})
	}
}

// TestSnapshotVersionRejected: a snapshot from a different layout
// version must be refused, not misinterpreted.
func TestSnapshotVersionRejected(t *testing.T) {
	prog, live, _ := captureSlabs(t, "predator")
	snap := live.Snapshot()
	snap.Version++
	if _, err := FromSnapshot(prog, snap); err == nil {
		t.Fatal("version mismatch accepted")
	}
}

// TestRestoredAnalysisCannotObserve: feeding events into a restored
// analysis is a programming error and must fail loudly.
func TestRestoredAnalysisCannotObserve(t *testing.T) {
	prog, live, slabs := captureSlabs(t, "predator")
	restored, err := FromSnapshot(prog, live.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ObserveBatch on a restored analysis did not panic")
		}
	}()
	restored.ObserveBatch(slabs[0])
}

// TestSnapshotBranchPCRejected: a snapshot's branch table comes from
// untrusted bytes, so a PC outside the program is an error, never a
// panic or a program-unrelated allocation.
func TestSnapshotBranchPCRejected(t *testing.T) {
	prog, live, _ := captureSlabs(t, "predator")
	for _, pc := range []int32{-1, int32(len(prog.Insts)), math.MaxInt32} {
		snap := live.Snapshot()
		s := bpred.BranchStats{Executed: 1}
		snap.Branches[pc] = s
		snap.BranchTotal.Executed++
		if _, err := FromSnapshot(prog, snap); err == nil {
			t.Errorf("branch PC %d accepted for a %d-instruction program", pc, len(prog.Insts))
		}
	}
}

// TestSnapshotBranchTotalRejected: per-branch stats that do not sum to
// the branch total are inconsistent (Merge, Sub and Scale all keep the
// sums) and must be refused.
func TestSnapshotBranchTotalRejected(t *testing.T) {
	prog, live, _ := captureSlabs(t, "predator")
	for _, bump := range []func(*bpred.BranchStats){
		func(s *bpred.BranchStats) { s.Executed++ },
		func(s *bpred.BranchStats) { s.Mispredicts++ },
		func(s *bpred.BranchStats) { s.Taken++ },
	} {
		snap := live.Snapshot()
		bump(&snap.BranchTotal)
		if _, err := FromSnapshot(prog, snap); err == nil {
			t.Errorf("mismatched branch total %+v accepted", snap.BranchTotal)
		}
	}
}

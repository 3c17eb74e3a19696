package bpred

import "fmt"

// BranchStats tracks per-static-branch prediction accuracy.
type BranchStats struct {
	Executed    uint64
	Mispredicts uint64
	Taken       uint64
}

// MispredictRate returns mispredictions over executions.
func (s BranchStats) MispredictRate() float64 {
	if s.Executed == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Executed)
}

func (s *BranchStats) add(o BranchStats) {
	s.Executed += o.Executed
	s.Mispredicts += o.Mispredicts
	s.Taken += o.Taken
}

// Tracker wraps a predictor and records per-branch statistics. It is
// the measurement harness used by the Table 4 analyses: feed it each
// committed conditional branch, then query per-branch or aggregate
// misprediction rates. A branch with no executions has no entry.
type Tracker struct {
	pred  Predictor
	perPC []BranchStats
	total BranchStats
}

// NewTracker wraps pred. A Tracker with a nil predictor is report-only:
// it can be merged into and queried, but not observed.
func NewTracker(pred Predictor) *Tracker { return &Tracker{pred: pred} }

// RestoreTracker rebuilds a report-only Tracker from persisted
// per-branch statistics over a program of nPCs instructions. The
// predictor state itself is not restored, so Observe must not be
// called on the result; the query methods behave as on the original.
// The input typically comes from untrusted bytes, so PCs outside
// [0, nPCs) and per-branch stats that do not sum to total are errors.
func RestoreTracker(per map[int32]BranchStats, total BranchStats, nPCs int) (*Tracker, error) {
	t := &Tracker{perPC: make([]BranchStats, nPCs)}
	for pc, s := range per {
		if pc < 0 || int(pc) >= nPCs {
			return nil, fmt.Errorf("bpred: branch PC %d outside program (%d insts)", pc, nPCs)
		}
		t.perPC[pc] = s
		t.total.add(s)
	}
	if t.total != total {
		return nil, fmt.Errorf("bpred: per-branch stats sum to %+v, total is %+v", t.total, total)
	}
	return t, nil
}

// Observe predicts, compares with the actual direction, trains, and
// records statistics. It returns true when the branch was mispredicted.
func (t *Tracker) Observe(pc int32, taken bool) bool {
	mis := t.pred.Observe(pc, taken)
	t.perPC = grow(t.perPC, int(pc))
	s := &t.perPC[pc]
	s.Executed++
	t.total.Executed++
	if taken {
		s.Taken++
		t.total.Taken++
	}
	if mis {
		s.Mispredicts++
		t.total.Mispredicts++
	}
	return mis
}

// Stats returns statistics for one static branch.
func (t *Tracker) Stats(pc int32) BranchStats {
	if pc < 0 || int(pc) >= len(t.perPC) {
		return BranchStats{}
	}
	return t.perPC[pc]
}

// Total returns aggregate statistics.
func (t *Tracker) Total() BranchStats { return t.total }

// PerBranch returns a copy of the per-branch table, keyed by PC.
func (t *Tracker) PerBranch() map[int32]BranchStats {
	out := make(map[int32]BranchStats)
	for pc, s := range t.perPC {
		if s.Executed != 0 {
			out[int32(pc)] = s
		}
	}
	return out
}

// HardToPredict reports the static branches whose misprediction rate
// is at least threshold (the paper's Table 4(b) uses 5%) and that
// executed at least minExec times (to suppress cold noise).
func (t *Tracker) HardToPredict(threshold float64, minExec uint64) map[int32]bool {
	out := make(map[int32]bool)
	for pc, s := range t.perPC {
		if s.Executed != 0 && s.Executed >= minExec && s.MispredictRate() >= threshold {
			out[int32(pc)] = true
		}
	}
	return out
}

// MergeInto adds t's per-branch statistics and totals into dst.
// Trackers over predictor shards own disjoint PC sets, so the merge is
// a union; overlapping PCs are summed.
func (t *Tracker) MergeInto(dst *Tracker) {
	if len(t.perPC) > 0 {
		dst.perPC = grow(dst.perPC, len(t.perPC)-1)
	}
	for pc, s := range t.perPC {
		dst.perPC[pc].add(s)
	}
	dst.total.add(t.total)
}

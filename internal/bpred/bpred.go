// Package bpred implements the branch predictors the paper uses to
// measure branch behaviour. The measurement predictor is "a hybrid
// branch predictor [McFarling-style] with an entry for each static
// branch (i.e., there is no aliasing)" (Section 2.2): a per-branch
// local history predictor and a global gshare predictor arbitrated by
// a per-branch choice counter. Bimodal and static predictors are
// provided as baselines for ablation studies.
//
// Per-branch state is indexed by PC: PCs are static instruction
// indices, so a dense slice holds one entry per static branch with no
// aliasing and no hashing.
package bpred

// Predictor predicts conditional branch outcomes and learns from the
// resolved direction. PC is the static instruction index of the
// branch (unique per static branch, which realizes the paper's
// no-aliasing requirement for per-branch state).
type Predictor interface {
	// Observe predicts the branch at pc, trains on the actual
	// direction, and reports whether the prediction was wrong.
	Observe(pc int32, taken bool) (mispredicted bool)
	// Name identifies the predictor in reports.
	Name() string
}

// train advances a saturating 2-bit counter: 0,1 predict not-taken;
// 2,3 predict taken.
func train(c uint8, taken bool) uint8 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// grow returns s extended, with amortized headroom, so that index i is
// valid. New entries are zero.
func grow[T any](s []T, i int) []T {
	if i < len(s) {
		return s
	}
	g := make([]T, i+i/2+16)
	copy(g, s)
	return g
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Static predicts a fixed direction (ablation baseline).
type Static struct{ Taken bool }

// Observe implements Predictor.
func (s *Static) Observe(_ int32, taken bool) bool { return taken != s.Taken }

// Name implements Predictor.
func (s *Static) Name() string {
	if s.Taken {
		return "always-taken"
	}
	return "always-not-taken"
}

// Bimodal keeps one 2-bit counter per static branch. Unseen branches
// start weakly taken, matching the usual backward-taken loop
// assumption.
type Bimodal struct {
	table []uint8
}

// NewBimodal returns an empty bimodal predictor.
func NewBimodal() *Bimodal { return &Bimodal{} }

// Observe implements Predictor.
func (b *Bimodal) Observe(pc int32, taken bool) bool {
	if i := int(pc); i >= len(b.table) {
		n := len(b.table)
		b.table = grow(b.table, i)
		for j := n; j < len(b.table); j++ {
			b.table[j] = 2 // weakly taken
		}
	}
	c := b.table[pc]
	b.table[pc] = train(c, taken)
	return (c >= 2) != taken
}

// Name implements Predictor.
func (b *Bimodal) Name() string { return "bimodal" }

// The paper geometry, a 21264-like tournament predictor: 10-bit local
// histories, each indexing a private pattern table, and a 12-bit
// global history indexing the gshare table.
const (
	localHistoryBits  = 10
	globalHistoryBits = 12
	lmask             = 1<<localHistoryBits - 1
	gmask             = 1<<globalHistoryBits - 1
)

// Hybrid is the paper's measurement predictor: per-static-branch
// local predictor (local history indexing a private pattern table),
// a shared gshare global predictor, and a per-branch choice counter.
//
// Hybrid can also be sharded exactly by branch PC. An observation
// touches two kinds of state: per-static-branch state (local history,
// pattern table, choice counter), read and written only by that
// branch's PC, and global state (the gshare table and the global
// history register), advanced by every conditional branch in commit
// order. A shard that sees ALL conditional branches in order — calling
// Observe for the PCs it owns and TrainGlobal for the rest — evolves
// the global state exactly as the serial predictor does, so its owned
// branches predict and train identically to a single serial Hybrid.
// Trackers over shards with disjoint PC sets, merged with MergeInto,
// therefore reproduce the serial Tracker byte-for-byte.
type Hybrid struct {
	ghist    uint64
	gshare   []uint8
	branches []localBranch
}

// localBranch is one static branch's local predictor. A nil pattern
// marks a branch never executed.
type localBranch struct {
	hist    uint64
	pattern []uint8
	choice  uint8 // 0,1 favor global; 2,3 favor local
}

// NewHybrid returns the hybrid predictor in the paper geometry.
func NewHybrid() *Hybrid {
	return &Hybrid{gshare: make([]uint8, gmask+1)}
}

// Observe implements Predictor: predict, train both components and
// the choice counter, and advance both histories.
func (h *Hybrid) Observe(pc int32, taken bool) bool {
	h.branches = grow(h.branches, int(pc))
	b := &h.branches[pc]
	if b.pattern == nil {
		b.pattern = make([]uint8, lmask+1)
		for j := range b.pattern {
			b.pattern[j] = 2 // weakly taken
		}
		b.choice = 2 // weakly favor local
	}
	li := b.hist & lmask
	gi := (uint64(uint32(pc)) ^ h.ghist) & gmask
	localPred := b.pattern[li] >= 2
	globalPred := h.gshare[gi] >= 2
	pred := globalPred
	if b.choice >= 2 {
		pred = localPred
	}

	// Train the choice counter toward whichever component was right
	// when they disagree.
	if localPred != globalPred {
		b.choice = train(b.choice, localPred == taken)
	}
	b.pattern[li] = train(b.pattern[li], taken)
	h.gshare[gi] = train(h.gshare[gi], taken)

	b.hist = (b.hist << 1) | b2u(taken)
	h.ghist = (h.ghist << 1) | b2u(taken)
	return pred != taken
}

// TrainGlobal processes a conditional branch owned by another shard:
// only the global component advances — gshare trains at the index the
// serial predictor would use, and the history register shifts. The
// branch's local state lives in its owning shard.
func (h *Hybrid) TrainGlobal(pc int32, taken bool) {
	gi := (uint64(uint32(pc)) ^ h.ghist) & gmask
	h.gshare[gi] = train(h.gshare[gi], taken)
	h.ghist = (h.ghist << 1) | b2u(taken)
}

// Name implements Predictor.
func (h *Hybrid) Name() string { return "hybrid" }

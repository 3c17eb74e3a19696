package bpred

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// refHybrid is the reference oracle for Hybrid: the paper predictor
// written the obvious way, with per-branch state in a lazily populated
// map and separate predict and update steps. Hybrid must agree with it
// on every prediction.
type refHybrid struct {
	locals map[int32]*refLocal
	ghist  uint64
	gshare []uint8
}

type refLocal struct {
	hist    uint64
	pattern []uint8
	choice  uint8
}

func newRefHybrid() *refHybrid {
	return &refHybrid{
		locals: make(map[int32]*refLocal),
		gshare: make([]uint8, 1<<globalHistoryBits),
	}
}

func (h *refHybrid) entry(pc int32) *refLocal {
	e := h.locals[pc]
	if e == nil {
		e = &refLocal{pattern: make([]uint8, 1<<localHistoryBits), choice: 2}
		for i := range e.pattern {
			e.pattern[i] = 2
		}
		h.locals[pc] = e
	}
	return e
}

func (h *refHybrid) gidx(pc int32) uint64 {
	return (uint64(uint32(pc)) ^ h.ghist) & (1<<globalHistoryBits - 1)
}

func (h *refHybrid) predict(pc int32) bool {
	e := h.entry(pc)
	if e.choice >= 2 {
		return e.pattern[e.hist&(1<<localHistoryBits-1)] >= 2
	}
	return h.gshare[h.gidx(pc)] >= 2
}

func (h *refHybrid) update(pc int32, taken bool) {
	e := h.entry(pc)
	li := e.hist & (1<<localHistoryBits - 1)
	gi := h.gidx(pc)
	localPred := e.pattern[li] >= 2
	globalPred := h.gshare[gi] >= 2
	if localPred != globalPred {
		e.choice = train(e.choice, localPred == taken)
	}
	e.pattern[li] = train(e.pattern[li], taken)
	h.gshare[gi] = train(h.gshare[gi], taken)
	e.hist = (e.hist << 1) | b2u(taken)
	h.ghist = (h.ghist << 1) | b2u(taken)
}

// branchStream generates a correlated random branch trace over nPCs
// static branches: loop-like branches mostly taken, data-dependent
// ones alternating, so both predictor components get exercised.
func branchStream(n, nPCs int, seed int64) ([]int32, []bool) {
	r := rand.New(rand.NewSource(seed))
	pcs := make([]int32, n)
	taken := make([]bool, n)
	for i := range pcs {
		pc := int32(r.Intn(nPCs))
		pcs[i] = pc
		switch pc % 3 {
		case 0:
			taken[i] = r.Intn(10) != 0 // loop back-edge
		case 1:
			taken[i] = i%2 == 0 // alternating
		default:
			taken[i] = r.Intn(2) == 0 // noise
		}
	}
	return pcs, taken
}

// refStats replays the stream through refHybrid and counts per-branch
// statistics independently of Tracker.
func refStats(pcs []int32, taken []bool) (map[int32]BranchStats, BranchStats) {
	ref := newRefHybrid()
	per := make(map[int32]BranchStats)
	var total BranchStats
	for i, pc := range pcs {
		var s BranchStats
		s.Executed = 1
		if taken[i] {
			s.Taken = 1
		}
		if ref.predict(pc) != taken[i] {
			s.Mispredicts = 1
		}
		ref.update(pc, taken[i])
		cur := per[pc]
		cur.add(s)
		per[pc] = cur
		total.add(s)
	}
	return per, total
}

// TestHybridMatchesReference pins Hybrid against refHybrid twice:
// serially, and sharded by PC — partition the PCs across shards, feed
// every shard the full branch stream (Observe through its Tracker when
// owned, TrainGlobal when not), and require the merged statistics to
// equal the reference byte-for-byte, the exactness argument in the
// Hybrid doc comment.
func TestHybridMatchesReference(t *testing.T) {
	for _, nShards := range []int{1, 2, 4, 7} {
		pcs, taken := branchStream(20000, 97, int64(nShards))
		wantPer, wantTotal := refStats(pcs, taken)

		serial := NewTracker(NewHybrid())
		for i, pc := range pcs {
			serial.Observe(pc, taken[i])
		}
		if serial.Total() != wantTotal || !reflect.DeepEqual(serial.PerBranch(), wantPer) {
			t.Fatalf("seed %d: serial Hybrid diverges from the reference", nShards)
		}

		preds := make([]*Hybrid, nShards)
		trackers := make([]*Tracker, nShards)
		for s := range preds {
			preds[s] = NewHybrid()
			trackers[s] = NewTracker(preds[s])
		}
		for i, pc := range pcs {
			owner := int(pc) % nShards
			for s := range preds {
				if s == owner {
					trackers[s].Observe(pc, taken[i])
				} else {
					preds[s].TrainGlobal(pc, taken[i])
				}
			}
		}

		merged := NewTracker(nil)
		for _, tr := range trackers {
			tr.MergeInto(merged)
		}
		if merged.Total() != wantTotal {
			t.Fatalf("%d shards: total %+v, want %+v", nShards, merged.Total(), wantTotal)
		}
		if !reflect.DeepEqual(merged.PerBranch(), wantPer) {
			t.Fatalf("%d shards: per-branch tables diverge", nShards)
		}
		if pb := trackers[0].PerBranch(); nShards > 1 && len(pb) >= len(wantPer) {
			t.Fatalf("shard 0 owns %d branches of %d total — partition not applied", len(pb), len(wantPer))
		}
	}
}

// TestTrackerRestores checks a tracker's statistics round-trip through
// RestoreTracker the way a snapshot rebuilds its final Analysis.
func TestTrackerRestores(t *testing.T) {
	pcs, taken := branchStream(5000, 31, 5)
	tr := NewTracker(NewHybrid())
	for i, pc := range pcs {
		tr.Observe(pc, taken[i])
	}
	got, err := RestoreTracker(tr.PerBranch(), tr.Total(), 31)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total() != tr.Total() {
		t.Fatalf("restored total %+v, want %+v", got.Total(), tr.Total())
	}
	if !reflect.DeepEqual(got.PerBranch(), tr.PerBranch()) {
		t.Fatal("restored per-branch table diverges")
	}
	for pc := int32(-1); pc <= 32; pc++ {
		if got.Stats(pc) != tr.Stats(pc) {
			t.Fatalf("pc %d: restored %+v, want %+v", pc, got.Stats(pc), tr.Stats(pc))
		}
	}
}

// TestRestoreTrackerRejects covers the untrusted-input checks: PCs
// outside the program and per-branch stats that disagree with the
// total are errors, never a panic or a huge allocation.
func TestRestoreTrackerRejects(t *testing.T) {
	s := BranchStats{Executed: 4, Mispredicts: 1, Taken: 3}
	for _, pc := range []int32{-1, 10, math.MaxInt32} {
		if _, err := RestoreTracker(map[int32]BranchStats{pc: s}, s, 10); err == nil {
			t.Errorf("pc %d accepted for a 10-instruction program", pc)
		}
	}
	for _, total := range []BranchStats{
		{Executed: 5, Mispredicts: 1, Taken: 3},
		{Executed: 4, Mispredicts: 2, Taken: 3},
		{Executed: 4, Mispredicts: 1, Taken: 2},
	} {
		if _, err := RestoreTracker(map[int32]BranchStats{3: s}, total, 10); err == nil {
			t.Errorf("total %+v accepted for per-branch sum %+v", total, s)
		}
	}
	if _, err := RestoreTracker(map[int32]BranchStats{9: s}, s, 10); err != nil {
		t.Errorf("valid input rejected: %v", err)
	}
}

package loadchar

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"bioperfload/internal/bpred"
	"bioperfload/internal/cache"
	"bioperfload/internal/isa"
	"bioperfload/internal/runstream"
)

// Execution records how a replay analysis actually ran, so callers can
// distinguish "parallel requested, ran parallel" from the silent
// serial collapses that previously hid behind identical results.
type Execution struct {
	// RequestedWorkers is what the caller asked for.
	RequestedWorkers int `json:"requested_workers"`
	// Workers is the worker count the analysis actually used.
	Workers int `json:"workers"`
	// SerialReason is empty when the analysis ran parallel as
	// requested; otherwise one of the SerialReason* constants naming
	// why it ran with fewer workers.
	SerialReason string `json:"serial_reason,omitempty"`
}

// Parallel reports whether more than one analysis worker ran.
func (e Execution) Parallel() bool { return e.Workers > 1 }

// Serial-collapse reasons. Empty means the requested parallelism ran.
const (
	// SerialReasonRequested: the caller asked for at most one worker.
	SerialReasonRequested = "requested"
	// SerialReasonGOMAXPROCS: worker count clamped to schedulable CPUs.
	SerialReasonGOMAXPROCS = "gomaxprocs"
	// SerialReasonSingleChunk: the trace has too few chunks to split.
	SerialReasonSingleChunk = "single-chunk"
)

// bpLane replays the conditional-branch column for one partition of
// static branch PCs (pc mod nShards == mine), joining mispredict
// outcomes with the run lane's fed flags.
type bpLane struct {
	pred    *bpred.Hybrid
	tr      *bpred.Tracker // over pred, counting owned branches only
	nShards int
	mine    int
	fedMiss uint64
}

func newBpLane(nShards, mine int) *bpLane {
	pred := bpred.NewHybrid()
	return &bpLane{pred: pred, tr: bpred.NewTracker(pred), nShards: nShards, mine: mine}
}

func (l *bpLane) chunk(ch *runstream.Chunk, ann *chunkAnn) {
	// BrTaken carries one bit per dynamic conditional branch, in the
	// same ordinal space as the fed bitmap, so a single cursor serves
	// both.
	br := 0
	for _, tk := range ann.toks {
		for rep := int32(0); rep < tk.rep; rep++ {
			for _, off := range tk.ri.brs {
				pc := tk.ri.pc + off
				taken := ch.BrTaken[br>>3]&(1<<(br&7)) != 0
				if l.nShards == 1 || int(pc)%l.nShards == l.mine {
					if l.tr.Observe(pc, taken) && ann.fedAt(br) {
						l.fedMiss++
					}
				} else {
					l.pred.TrainGlobal(pc, taken)
				}
				br++
			}
		}
	}
}

// memLane replays the memory column for one partition of cache sets
// (cache.ShardOf on the block address). Every lane walks all memory
// events to keep the shared address-column cursor aligned; only owned
// addresses touch its private hierarchy.
type memLane struct {
	hier    *cache.Hierarchy
	l1miss  []uint64
	block   uint64
	nShards int
	mine    int
}

func newMemLane(hcfg cache.HierarchyConfig, nInsts, nShards, mine int) *memLane {
	return &memLane{
		hier:    cache.NewHierarchy(hcfg),
		l1miss:  make([]uint64, nInsts),
		block:   hcfg.L1.Block,
		nShards: nShards,
		mine:    mine,
	}
}

func (l *memLane) chunk(ch *runstream.Chunk, ann *chunkAnn) {
	// Addrs carries one entry per memory instance (zeros included), so
	// the column is a flat cursor with no per-event presence bitmap to
	// consult.
	cur := 0
	for _, tk := range ann.toks {
		for rep := int32(0); rep < tk.rep; rep++ {
			for _, m := range tk.ri.mems {
				addr := ch.Addrs[cur]
				cur++
				if l.nShards != 1 && cache.ShardOf(addr, l.block, l.nShards) != l.mine {
					continue
				}
				if m&storeBit != 0 {
					l.hier.Access(addr, true)
				} else if lvl, _ := l.hier.Access(addr, false); lvl != cache.LevelL1 {
					l.l1miss[tk.ri.pc+(m&^storeBit)]++
				}
			}
		}
	}
}

// bundle is one chunk plus its run-lane annotation, reference-counted
// across the shard lanes.
type bundle struct {
	ch      *runstream.Chunk
	ann     *chunkAnn
	release func()
	refs    atomic.Int32
}

// AnalyzeRuns runs the block-characterized replay over a column
// stream: the run lane memoizes the dependence and sequence machines
// over (state, run) pairs, the predictor lane replays the taken column
// with the paper hybrid, and the memory lane replays the address
// column through the paper hierarchy. With workers > 1 the predictor
// and memory lanes split into exact shards (by branch PC and by cache
// set partition) running on their own goroutines. The resulting
// profile is byte-identical to the live five-pass analysis, pinned by
// golden tests; the analysis is report-only (restored), like one
// rebuilt from a Snapshot.
//
// The configuration is the paper's (cache.PaperConfig, bpred.NewHybrid),
// the one New uses: the shard lanes' exactness proofs are tied to that
// geometry.
func AnalyzeRuns(ctx context.Context, prog *isa.Program, src runstream.Source, workers int) (*Analysis, error) {
	eng := newRunEngine(prog)
	hcfg := cache.PaperConfig()
	exec := Execution{RequestedWorkers: workers, Workers: workers}
	if workers <= 1 {
		exec.Workers = 1
		exec.SerialReason = SerialReasonRequested
	}

	if exec.Workers == 1 {
		bp := newBpLane(1, 0)
		mem := newMemLane(hcfg, len(prog.Insts), 1, 0)
		ann := &chunkAnn{}
		for {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("loadchar: run analysis: %w", err)
			}
			ch, release, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			eng.processChunk(ch, ann)
			bp.chunk(ch, ann)
			mem.chunk(ch, ann)
			if release != nil {
				release()
			}
		}
		return assembleAnalysis(prog, hcfg, eng, []*bpLane{bp}, []*memLane{mem}, exec), nil
	}

	// Lane topology: the run lane runs here (it is the ordering spine);
	// the remaining workers split between predictor shards and memory
	// shards, memory-heavy because the cache walk dominates. The memory
	// shard count must be a power of two within the set-partition limit.
	w := exec.Workers
	nb := (w - 1) / 3
	if nb < 1 {
		nb = 1
	}
	nm := w - 1 - nb
	if nm < 1 {
		nm = 1
	}
	nm = cache.ShardCount(hcfg, nm)

	bps := make([]*bpLane, nb)
	mems := make([]*memLane, nm)
	nLanes := nb + nm
	chans := make([]chan *bundle, nLanes)
	work := make([]func(*bundle), nLanes)
	for i := 0; i < nb; i++ {
		l := newBpLane(nb, i)
		bps[i] = l
		work[i] = func(b *bundle) { l.chunk(b.ch, b.ann) }
	}
	for i := 0; i < nm; i++ {
		l := newMemLane(hcfg, len(prog.Insts), nm, i)
		mems[i] = l
		work[nb+i] = func(b *bundle) { l.chunk(b.ch, b.ann) }
	}

	annPool := sync.Pool{New: func() any { return &chunkAnn{} }}
	var wg sync.WaitGroup
	for i := range chans {
		chans[i] = make(chan *bundle, 4)
		wg.Add(1)
		go func(in chan *bundle, f func(*bundle)) {
			defer wg.Done()
			for b := range in {
				f(b)
				if b.refs.Add(-1) == 0 {
					if b.release != nil {
						b.release()
					}
					annPool.Put(b.ann)
				}
			}
		}(chans[i], work[i])
	}

	feed := func() error {
		for {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("loadchar: run analysis: %w", err)
			}
			ch, release, err := src.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			ann := annPool.Get().(*chunkAnn)
			eng.processChunk(ch, ann)
			b := &bundle{ch: ch, ann: ann, release: release}
			b.refs.Store(int32(nLanes))
			for _, c := range chans {
				c <- b
			}
		}
	}
	err := feed()
	for _, c := range chans {
		close(c)
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	return assembleAnalysis(prog, hcfg, eng, bps, mems, exec), nil
}

// assembleAnalysis multiplies out the engine's characterization tables
// and merges the shard lanes into a report-only Analysis, mirroring
// FromSnapshot's construction.
func assembleAnalysis(prog *isa.Program, hcfg cache.HierarchyConfig, eng *runEngine, bps []*bpLane, mems []*memLane, exec Execution) *Analysis {
	a := &Analysis{prog: prog, restored: true, Exec: exec}
	a.mix.init(len(prog.Insts))
	a.dep.init(len(prog.Insts))
	a.seq.init()
	eng.finish(a)

	a.bp.bp = bpred.NewTracker(nil)
	for _, l := range bps {
		l.tr.MergeInto(a.bp.bp)
		a.dep.fedBranchMiss += l.fedMiss
	}

	if len(mems) == 1 {
		// A single lane already holds the whole run's stats; reuse it
		// rather than allocate a second paper-geometry hierarchy.
		a.cache.hier = mems[0].hier
		a.cache.l1miss = mems[0].l1miss
		return a
	}
	a.cache.hier = cache.NewHierarchy(hcfg)
	var l1, l2 cache.Stats
	a.cache.l1miss = make([]uint64, len(prog.Insts))
	for _, l := range mems {
		l1.Add(l.hier.L1().Stats())
		l2.Add(l.hier.L2().Stats())
		for pc, v := range l.l1miss {
			if v != 0 {
				a.cache.l1miss[pc] += v
			}
		}
	}
	a.cache.hier.L1().SetStats(l1)
	a.cache.hier.L2().SetStats(l2)
	return a
}

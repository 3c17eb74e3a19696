package runner

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"log"
	"sort"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/isa"
	"bioperfload/internal/loadchar"
	"bioperfload/internal/sim"
	"bioperfload/internal/simpoint"
	"bioperfload/internal/trace"
)

// sampledProfKey extends the exact profile key with the sampling
// tier and the full sampling configuration: a sampled snapshot is an
// approximation and is only interchangeable with requests sharing
// every knob that shaped it.
func sampledProfKey(fp string, sz bio.Size, cfg simpoint.Config) string {
	return profKey(fp, sz) + "|sampled|" + cfg.Fingerprint()
}

// characterizeSampled is the AccuracySampled serve path: snapshot tier
// first, then phase analysis over the recorded trace (recording one
// cold if the store has none), degrading to the exact path whenever
// the trace or program is too small to sample.
func (s *Session) characterizeSampled(ctx context.Context, p *bio.Program, sz bio.Size) (*Profile, error) {
	cfg := s.SimPoint()
	degrade := func(reason string) (*Profile, error) {
		s.sampledDegrades.Add(1)
		log.Printf("runner: %s/%s: sampled characterization degraded to exact: %s", p.Name, sz, reason)
		return s.Characterize(ctx, p, sz)
	}

	var fp string
	if s.store != nil {
		fp = Fingerprint(p, false, compiler.Default())
		if prof, ok := s.loadSampledProfile(p, sz, fp, cfg); ok {
			s.sampledHits.Add(1)
			return prof, nil
		}
	}

	prog, err := s.Compile(p, false, compiler.Default())
	if err != nil {
		return nil, err
	}
	if simpoint.BlockMap(prog).NumBlocks() <= 1 {
		return degrade("program has a single basic block")
	}

	ir, cleanup, err := s.sampledTrace(ctx, p, sz, fp, prog)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	a, _, err := SampledAnalyze(ctx, prog, ir, cfg, s.jobs)
	var de *simpoint.DegradeError
	if errors.As(err, &de) {
		return degrade(de.Reason)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	prof := &Profile{Name: p.Name, Instructions: ir.TotalEvents(), Analysis: a, Source: "sampled"}
	s.sampledChars.Add(1)
	if s.store != nil {
		s.storeSampledProfile(prof, sz, fp, cfg)
	}
	return prof, nil
}

// SampledAnalyze runs the whole sampled pipeline over an indexed
// trace: interval collection, clustering, representative replay with
// warmup, and weighted extrapolation into one analysis. It is the
// engine under the session's sampled tier and `bioperf bench-sampling`.
// A *simpoint.DegradeError means sampling does not apply: the trace is
// too small to sample, or the representatives do not fall on chunk
// boundaries (an interval size that is not a multiple of the trace's
// chunk size). The representative replays fan out perfectly — each
// owns a private analysis — so jobs bounds both the collection scan
// and the replays.
func SampledAnalyze(ctx context.Context, prog *isa.Program, ir *trace.IndexedReader, cfg simpoint.Config, jobs int) (*loadchar.Analysis, *simpoint.Plan, error) {
	cfg = cfg.WithDefaults()
	intervals, err := simpoint.CollectTrace(ctx, prog, ir, cfg, jobs)
	if err != nil {
		return nil, nil, fmt.Errorf("collect intervals: %w", err)
	}
	plan, err := simpoint.BuildPlan(intervals, cfg)
	if err != nil {
		return nil, nil, err
	}
	for _, c := range plan.Clusters {
		_, okStart := chunkAt(ir, c.Start)
		_, okEnd := chunkAt(ir, c.End)
		if !okStart || !okEnd {
			return nil, nil, &simpoint.DegradeError{Reason: fmt.Sprintf(
				"representative [%d,%d) does not fall on trace chunk boundaries (interval size %d is not a multiple of the chunk size)",
				c.Start, c.End, plan.Config.IntervalSize)}
		}
	}
	deltas := make([]*loadchar.Snapshot, len(plan.Clusters))
	err = forEach(ctx, jobs, len(plan.Clusters), func(i int) error {
		c := plan.Clusters[i]
		snap, err := replayInterval(ctx, prog, ir, c.Start, c.End, plan.Config.WarmupEvents)
		if err != nil {
			return fmt.Errorf("replay interval [%d,%d): %w", c.Start, c.End, err)
		}
		snap.Scale(c.Weight)
		deltas[i] = snap
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	merged := deltas[0]
	for _, d := range deltas[1:] {
		if err := merged.Merge(d); err != nil {
			return nil, nil, fmt.Errorf("merge cluster snapshots: %w", err)
		}
	}
	a, err := loadchar.FromSnapshot(prog, merged)
	if err != nil {
		return nil, nil, fmt.Errorf("restore sampled snapshot: %w", err)
	}
	return a, plan, nil
}

// chunkAt returns the index of the chunk whose first event is seq, or
// Chunks() when seq is the trace's end; ok is false when seq falls
// inside a chunk.
func chunkAt(ir *trace.IndexedReader, seq uint64) (int, bool) {
	n := ir.Chunks()
	i := sort.Search(n, func(i int) bool { return ir.Base(i) >= seq })
	if i == n {
		return i, seq == ir.TotalEvents()
	}
	return i, ir.Base(i) == seq
}

// warmChunk returns the chunk a representative starting at start
// replays from: the one holding the event warm events before start.
func warmChunk(ir *trace.IndexedReader, start, warm uint64) int {
	warmStart := uint64(0)
	if start > warm {
		warmStart = start - warm
	}
	lo := sort.Search(ir.Chunks(), func(i int) bool { return ir.Base(i) > warmStart }) - 1
	if lo < 0 {
		lo = 0
	}
	return lo
}

// replayInterval characterizes exactly the events in [start, end) with
// warmed microarchitectural state. Two run replays start from the same
// chunk boundary at least warm events before start: one stops at
// start, the other at end, and the first snapshot is subtracted from
// the second. The difference is the interval's exact counts under the
// warmed cache and predictor: both replays see the same deterministic
// prefix, so the subtraction is exact, not approximate. start and end
// must be chunk boundaries (end may be the trace's end).
func replayInterval(ctx context.Context, prog *isa.Program, ir *trace.IndexedReader, start, end, warm uint64) (*loadchar.Snapshot, error) {
	s, okS := chunkAt(ir, start)
	hi, okE := chunkAt(ir, end)
	if !okS || !okE || s >= hi {
		return nil, fmt.Errorf("interval [%d,%d) is not a non-empty chunk-aligned range", start, end)
	}
	lo := warmChunk(ir, start, warm)
	pre, err := replayChunks(ctx, prog, ir, lo, s)
	if err != nil {
		return nil, err
	}
	final, err := replayChunks(ctx, prog, ir, lo, hi)
	if err != nil {
		return nil, err
	}
	if err := final.Sub(pre); err != nil {
		return nil, err
	}
	return final, nil
}

// replayChunks characterizes chunks [lo, hi) on one worker; the
// representatives already fan out across clusters.
func replayChunks(ctx context.Context, prog *isa.Program, ir *trace.IndexedReader, lo, hi int) (*loadchar.Snapshot, error) {
	src := ir.Columns(ctx, prog, lo, hi, 1)
	defer src.Close()
	a, err := loadchar.AnalyzeRuns(ctx, prog, src, 1)
	if err != nil {
		return nil, err
	}
	return a.Snapshot(), nil
}

// sampledTrace opens an indexed reader over the trace for (p, sz),
// producing one if necessary. With a store the trace is recorded
// through it (and reused by every later request, exact or sampled);
// without one the trace lives in memory for the duration of the call.
func (s *Session) sampledTrace(ctx context.Context, p *bio.Program, sz bio.Size, fp string, prog *isa.Program) (*trace.IndexedReader, func(), error) {
	noop := func() {}
	if s.store != nil {
		if ir, cleanup, ok := s.openTrace(p, sz, fp); ok {
			return ir, cleanup, nil
		}
		// Record a fresh trace cold — the run carries no analysis, so it
		// is much cheaper than a cold exact characterization.
		if err := s.recordTrace(ctx, p, sz, fp, prog, nil); err != nil {
			return nil, noop, err
		}
		if ir, cleanup, ok := s.openTrace(p, sz, fp); ok {
			return ir, cleanup, nil
		}
		return nil, noop, fmt.Errorf("%s: trace unreadable immediately after recording", p.Name)
	}
	var buf bytes.Buffer
	if err := s.recordTrace(ctx, p, sz, fp, prog, &buf); err != nil {
		return nil, noop, err
	}
	ir, err := trace.NewIndexedReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		return nil, noop, fmt.Errorf("%s: index in-memory trace: %w", p.Name, err)
	}
	return ir, noop, nil
}

// recordTrace runs the program once with only a trace writer attached.
// With w == nil the trace is committed to the store; otherwise it is
// written to w.
func (s *Session) recordTrace(ctx context.Context, p *bio.Program, sz bio.Size, fp string, prog *isa.Program, w *bytes.Buffer) error {
	m, err := sim.New(prog)
	if err != nil {
		return err
	}
	if err := p.Bind(m, sz); err != nil {
		return fmt.Errorf("%s: bind: %w", p.Name, err)
	}
	var rec *recorder
	var tw *trace.Writer
	if w != nil {
		tw = trace.NewWriter(w, trace.Meta{Program: p.Name, Fingerprint: fp, Size: sz.String()}, prog)
		m.AddBatchObserver(tw)
	} else {
		rec = s.startRecording(m, p, sz, fp, prog)
		if rec == nil {
			return fmt.Errorf("%s: store rejected trace recording", p.Name)
		}
	}
	s.runs.Add(1)
	res, err := m.RunContext(ctx)
	if err != nil {
		rec.abort()
		return fmt.Errorf("%s: %w", p.Name, err)
	}
	if err := p.Validate(res, sz); err != nil {
		rec.abort()
		return err
	}
	if tw != nil {
		if err := tw.Close(); err != nil {
			return fmt.Errorf("%s: close trace: %w", p.Name, err)
		}
		if tw.Events() != res.Instructions {
			return fmt.Errorf("%s: trace recorded %d events, run committed %d", p.Name, tw.Events(), res.Instructions)
		}
		return nil
	}
	rec.commit(res.Instructions)
	return nil
}

// PhasePlan exposes the sampling decision for one (program, size): the
// interval timeline and clustering the sampled path would use. It is
// what `bioperf phases` renders. A *simpoint.DegradeError reports a
// trace too small to sample.
func (s *Session) PhasePlan(ctx context.Context, p *bio.Program, sz bio.Size) (*simpoint.Plan, error) {
	cfg := s.SimPoint()
	prog, err := s.Compile(p, false, compiler.Default())
	if err != nil {
		return nil, err
	}
	if simpoint.BlockMap(prog).NumBlocks() <= 1 {
		return nil, &simpoint.DegradeError{Reason: "program has a single basic block"}
	}
	var fp string
	if s.store != nil {
		fp = Fingerprint(p, false, compiler.Default())
	}
	ir, cleanup, err := s.sampledTrace(ctx, p, sz, fp, prog)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	intervals, err := simpoint.CollectTrace(ctx, prog, ir, cfg, s.jobs)
	if err != nil {
		return nil, fmt.Errorf("%s: collect intervals: %w", p.Name, err)
	}
	return simpoint.BuildPlan(intervals, cfg)
}

// loadSampledProfile serves a sampled characterization from its
// persisted snapshot; the artifact format is identical to the exact
// one, only the key differs.
func (s *Session) loadSampledProfile(p *bio.Program, sz bio.Size, fp string, cfg simpoint.Config) (*Profile, bool) {
	key := sampledProfKey(fp, sz, cfg)
	data, ok := s.store.GetBytes(key)
	if !ok {
		return nil, false
	}
	art, err := decodeProfileArtifact(data, fp)
	if err != nil {
		s.store.Delete(key)
		return nil, false
	}
	prog, err := s.Compile(p, false, compiler.Default())
	if err != nil {
		return nil, false
	}
	a, err := loadchar.FromSnapshot(prog, art.Snap)
	if err != nil {
		s.store.Delete(key)
		return nil, false
	}
	return &Profile{Name: p.Name, Instructions: art.Instructions, Analysis: a, Source: "sampled"}, true
}

func (s *Session) storeSampledProfile(prof *Profile, sz bio.Size, fp string, cfg simpoint.Config) {
	if prof == nil || prof.Analysis == nil {
		return
	}
	var buf bytes.Buffer
	art := profileArtifact{Fingerprint: fp, Instructions: prof.Instructions, Snap: prof.Analysis.Snapshot()}
	if err := gob.NewEncoder(&buf).Encode(&art); err != nil {
		return
	}
	key := sampledProfKey(fp, sz, cfg)
	if err := s.store.PutBytes(key, buf.Bytes()); err != nil {
		return
	}
	if s.remote != nil {
		s.remote.Replicate(key, buf.Bytes())
	}
}

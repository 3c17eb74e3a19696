package main

import (
	"context"
	"fmt"
	"time"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/experiments"
	"bioperfload/internal/pipeline"
	"bioperfload/internal/platform"
	"bioperfload/internal/runner"
	"bioperfload/internal/scoreboard"
	"bioperfload/internal/sim"
)

// t8Run is one pass of the timing paths.
type t8Run struct {
	fastWall, fullWall time.Duration
	fast               []experiments.Table8Cell
	// full holds the Alpha column's Stats, original then transformed
	// for each program of bio.Transformed().
	full []pipeline.Stats
}

// table8Pass computes Table 8 at fast fidelity, then the Alpha 21264
// column at full fidelity, each on a fresh session.
func (e *env) table8Pass(ctx context.Context) (*t8Run, error) {
	r := &t8Run{}
	start := time.Now()
	cells, err := experiments.Table8SessionFidelity(ctx, runner.NewSession(workers), e.size, pipeline.FidelityFast)
	r.fastWall = time.Since(start)
	e.count(len(bio.Transformed())*len(platform.All())*2, err)
	if err != nil {
		return nil, fmt.Errorf("table 8 fast: %w", err)
	}
	r.fast = cells

	progs := bio.Transformed()
	alpha := platform.Alpha21264()
	sess := runner.NewSession(workers)
	r.full = make([]pipeline.Stats, 2*len(progs))
	start = time.Now()
	err = sess.ForEach(ctx, len(r.full), func(k int) error {
		st, err := sess.Evaluate(ctx, progs[k/2], alpha, e.size, k%2 == 1)
		r.full[k] = st
		return err
	})
	r.fullWall = time.Since(start)
	e.count(len(r.full), err)
	if err != nil {
		return nil, fmt.Errorf("table 8 full alpha: %w", err)
	}
	e.checkTable8(r)
	return r, nil
}

// checkTable8 compares a pass with the checked-in references and with
// the run's first pass: the fast cells and the Alpha cycles must repeat
// exactly.
func (e *env) checkTable8(r *t8Run) {
	fast := cyclesOf(r.fast)
	for _, d := range compareCells(e.refFast, fast, "reference", "got") {
		e.checks.fail("table 8 fast: %s", d)
	}
	alpha := platform.Alpha21264().Name
	full := make(table8Cycles)
	for i, p := range bio.Transformed() {
		full[cellKey(p.Name, alpha)] = [2]uint64{r.full[2*i].Cycles, r.full[2*i+1].Cycles}
	}
	for _, d := range compareCells(e.refFull, full, "reference", "got") {
		e.checks.fail("table 8 full: %s", d)
	}
	if e.firstT8 == nil {
		e.firstT8 = r
		return
	}
	if fmt.Sprint(r.fast) != fmt.Sprint(e.firstT8.fast) || fmt.Sprint(r.full) != fmt.Sprint(e.firstT8.full) {
		e.checks.fail("table 8: a pass did not repeat the first pass exactly")
	}
}

// t8Layers holds the traced timing path's layer counters.
type t8Layers struct {
	instructions   uint64
	runWall        time.Duration
	pipelineBusy   time.Duration
	pipelineEvents uint64
	pipelineCycles uint64
	boardBusy      time.Duration
	boardEvents    uint64
	boardInsts     uint64
	compiles       int
	l1Accesses     uint64
	l1Misses       uint64
	l2Misses       uint64
	condBranches   uint64
	mispredicts    uint64
}

// tracedTable8 repeats the timing pass through the calls
// Session.EvaluateGroup makes — Compile, sim.New, Bind, the timing
// models as batch observers, RunContext, Validate, Finalize — with the
// models wrapped in timing shims. Every Stats must equal the untraced
// pass's.
func (e *env) tracedTable8(ctx context.Context, rec *recorder, ref *t8Run) (t8Layers, time.Duration, error) {
	var l t8Layers
	progs := bio.Transformed()
	plats := platform.All()

	// Fast tier: one sampled functional run per program, variant and
	// register budget, with a scoreboard per platform sharing it.
	type group struct {
		opts compiler.Options
		idx  []int
	}
	var groups []group
	for j, pl := range plats {
		found := false
		for g := range groups {
			if groups[g].opts == pl.EvalOptions() {
				groups[g].idx = append(groups[g].idx, j)
				found = true
				break
			}
		}
		if !found {
			groups = append(groups, group{opts: pl.EvalOptions(), idx: []int{j}})
		}
	}
	type unit struct {
		prog        int
		transformed bool
		group       int
	}
	var units []unit
	for i := range progs {
		for _, tr := range []bool{false, true} {
			for g := range groups {
				units = append(units, unit{i, tr, g})
			}
		}
	}
	fastStats := make([][]pipeline.Stats, len(units))
	fastLayers := make([]t8Layers, len(units))
	pool := runner.NewSession(workers)
	start := time.Now()
	err := pool.ForEach(ctx, len(units), func(k int) error {
		u := units[k]
		g := groups[u.group]
		models := make([]*scoreboard.Model, len(g.idx))
		obs := make([]*timedObserver, len(g.idx))
		for x, j := range g.idx {
			cfg := plats[j].Pipeline
			cfg.Fidelity = pipeline.FidelityFast
			models[x] = scoreboard.NewModel(cfg)
			obs[x] = &timedObserver{inner: models[x]}
		}
		req := fmt.Sprintf("fast/%s/%v/%d", progs[u.prog].Name, u.transformed, u.group)
		res, err := e.tracedTiming(ctx, rec, req, progs[u.prog], u.transformed, g.opts, obs, true, &fastLayers[k])
		if err != nil {
			return err
		}
		out := make([]pipeline.Stats, len(models))
		for x, md := range models {
			md.Finalize(res.Instructions)
			out[x] = md.Stats()
			fastLayers[k].boardBusy += obs[x].busy
			fastLayers[k].boardEvents += obs[x].events
			fastLayers[k].boardInsts += res.Instructions
		}
		fastStats[k] = out
		return nil
	})
	e.count(len(units), err)
	if err != nil {
		return l, 0, fmt.Errorf("traced table 8 fast: %w", err)
	}
	for k, u := range units {
		l.add(fastLayers[k])
		for x, j := range groups[u.group].idx {
			cell := ref.fast[u.prog*len(plats)+j]
			want := cell.StatsOrig
			if u.transformed {
				want = cell.StatsTrans
			}
			if fmt.Sprintf("%+v", fastStats[k][x]) != fmt.Sprintf("%+v", want) {
				e.checks.fail("traced table 8 fast: %s/%s Stats differ from the untraced run", cell.Program, cell.Platform)
			}
		}
	}

	// Full tier: the Alpha column, one pipeline model per run.
	alpha := platform.Alpha21264()
	fullLayers := make([]t8Layers, 2*len(progs))
	fullStats := make([]pipeline.Stats, 2*len(progs))
	err = pool.ForEach(ctx, len(fullStats), func(k int) error {
		md := pipeline.NewModel(alpha.Pipeline)
		obs := &timedObserver{inner: md}
		req := fmt.Sprintf("full/%s/%v", progs[k/2].Name, k%2 == 1)
		if _, err := e.tracedTiming(ctx, rec, req, progs[k/2], k%2 == 1, alpha.EvalOptions(), []*timedObserver{obs}, false, &fullLayers[k]); err != nil {
			return err
		}
		st := md.Stats()
		fullStats[k] = st
		fl := &fullLayers[k]
		fl.pipelineBusy += obs.busy
		fl.pipelineEvents += obs.events
		fl.pipelineCycles += st.Cycles
		l1, l2 := md.Hierarchy().L1().Stats(), md.Hierarchy().L2().Stats()
		fl.l1Accesses += l1.Accesses
		fl.l1Misses += l1.Misses()
		fl.l2Misses += l2.Misses()
		bt := md.Branches().Total()
		fl.condBranches += bt.Executed
		fl.mispredicts += bt.Mispredicts
		return nil
	})
	wall := time.Since(start)
	e.count(len(fullStats), err)
	if err != nil {
		return l, 0, fmt.Errorf("traced table 8 full alpha: %w", err)
	}
	for k := range fullStats {
		l.add(fullLayers[k])
		if fmt.Sprintf("%+v", fullStats[k]) != fmt.Sprintf("%+v", ref.full[k]) {
			e.checks.fail("traced table 8 full: %s (transformed=%v) Stats differ from the untraced run", progs[k/2].Name, k%2 == 1)
		}
	}
	return l, wall, nil
}

// tracedTiming compiles, binds and runs one program with the given
// timing observers attached, timing the compile and the run.
func (e *env) tracedTiming(ctx context.Context, rec *recorder, req string, p *bio.Program, transformed bool, opts compiler.Options, obs []*timedObserver, sampled bool, l *t8Layers) (*sim.Result, error) {
	root := rec.start(0, "runner.evaluate", req)
	defer rec.end(root)
	id := rec.start(root, "compiler.compile", req)
	prog, err := p.Compile(transformed, opts)
	rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	prog.Symbol("")
	l.compiles++
	m, err := sim.New(prog)
	if err != nil {
		return nil, err
	}
	if err := p.Bind(m, e.size); err != nil {
		return nil, fmt.Errorf("%s: bind: %w", p.Name, err)
	}
	for _, o := range obs {
		m.AddBatchObserver(o)
	}
	if sampled {
		m.SetSampling(scoreboard.SampleObserve, scoreboard.SamplePeriod)
	}
	runStart := time.Now()
	id = rec.start(root, "sim.run", req)
	res, err := m.RunContext(ctx)
	rec.end(id)
	l.runWall += time.Since(runStart)
	at := runStart
	for _, o := range obs {
		name := "pipeline.observe"
		if sampled {
			name = "scoreboard.observe"
		}
		rec.add(id, name, req, at, o.busy)
		at = at.Add(o.busy)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	id = rec.start(root, "bio.validate", req)
	err = p.Validate(res, e.size)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	l.instructions += res.Instructions
	return res, nil
}

func (l *t8Layers) add(o t8Layers) {
	l.instructions += o.instructions
	l.runWall += o.runWall
	l.pipelineBusy += o.pipelineBusy
	l.pipelineEvents += o.pipelineEvents
	l.pipelineCycles += o.pipelineCycles
	l.boardBusy += o.boardBusy
	l.boardEvents += o.boardEvents
	l.boardInsts += o.boardInsts
	l.compiles += o.compiles
	l.l1Accesses += o.l1Accesses
	l.l1Misses += o.l1Misses
	l.l2Misses += o.l2Misses
	l.condBranches += o.condBranches
	l.mispredicts += o.mispredicts
}

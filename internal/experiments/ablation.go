package experiments

import (
	"context"
	"fmt"
	"strings"

	"bioperfload/internal/bio"
	"bioperfload/internal/bpred"
	"bioperfload/internal/compiler"
	"bioperfload/internal/pipeline"
	"bioperfload/internal/platform"
	"bioperfload/internal/runner"
)

// The ablations test the paper's causal claims directly, something
// the original authors could not do on fixed hardware:
//
//  1. L1 hit latency: the paper attributes the slowdown to the
//     multicycle L1 hit latency. On a hypothetical 1-cycle-L1 Alpha
//     the transformation's latency-hiding benefit should shrink
//     (only the branch-elimination benefit remains).
//  2. Compiler passes: disabling CMOV if-conversion on the
//     transformed sources isolates how much of the win is branch
//     elimination vs. load scheduling.
//  3. Branch predictor: with a perfect predictor the load-to-branch
//     penalty disappears, so the gap between original and
//     transformed narrows; with a poor (always-taken) predictor it
//     widens.

// AblationResult is one variant's original/transformed cycle pair.
type AblationResult struct {
	Variant     string
	CyclesOrig  uint64
	CyclesTrans uint64
}

// Speedup returns the transformation gain under this variant.
func (r AblationResult) Speedup() float64 {
	if r.CyclesTrans == 0 {
		return 0
	}
	return float64(r.CyclesOrig)/float64(r.CyclesTrans) - 1
}

// ablationVariant is one (pipeline config, compiler options) point of
// an ablation sweep.
type ablationVariant struct {
	name string
	cfg  pipeline.Config
	opts compiler.Options
}

// runVariants measures every variant's original/transformed cycle
// pair on the session's worker pool, preserving variant order. On the
// full tier each variant is two independent timing runs, so a sweep of
// v variants fans out into 2v jobs; compiles dedupe through the
// session cache. On the fast tier, variants sharing compiler options
// share one functional run per variant set and direction — their
// scoreboards all observe the same sampled stream.
func runVariants(ctx context.Context, s *runner.Session, p *bio.Program, variants []ablationVariant, sz bio.Size, fid pipeline.Fidelity) ([]AblationResult, error) {
	out := make([]AblationResult, len(variants))
	for i, v := range variants {
		out[i].Variant = v.name
	}
	if fid == pipeline.FidelityFast {
		// Group variants by compiler options; one grouped run per
		// (options bucket, direction).
		var groups []struct {
			opts compiler.Options
			idx  []int
		}
		for i, v := range variants {
			found := false
			for gi := range groups {
				if groups[gi].opts == v.opts {
					groups[gi].idx = append(groups[gi].idx, i)
					found = true
					break
				}
			}
			if !found {
				groups = append(groups, struct {
					opts compiler.Options
					idx  []int
				}{opts: v.opts, idx: []int{i}})
			}
		}
		err := s.ForEach(ctx, len(groups)*2, func(k int) error {
			g, transformed := groups[k/2], k%2 == 1
			cfgs := make([]pipeline.Config, len(g.idx))
			for x, i := range g.idx {
				c := variants[i].cfg
				c.Fidelity = pipeline.FidelityFast
				cfgs[x] = c
			}
			sts, err := s.EvaluateGroup(ctx, p, cfgs, g.opts, sz, transformed)
			if err != nil {
				return err
			}
			for x, i := range g.idx {
				if transformed {
					out[i].CyclesTrans = sts[x].Cycles
				} else {
					out[i].CyclesOrig = sts[x].Cycles
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	err := s.ForEach(ctx, len(variants)*2, func(k int) error {
		i, transformed := k/2, k%2 == 1
		v := variants[i]
		st, err := s.EvaluateOpts(ctx, p, v.cfg, v.opts, sz, transformed)
		if err != nil {
			return err
		}
		if transformed {
			out[i].CyclesTrans = st.Cycles
		} else {
			out[i].CyclesOrig = st.Cycles
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AblateL1Latency measures the program on Alpha-like machines whose
// L1 load-to-use latency sweeps over the given values.
func AblateL1Latency(ctx context.Context, s *runner.Session, progName string, sz bio.Size, latencies []int, fid pipeline.Fidelity) ([]AblationResult, error) {
	p, err := bio.ByName(progName)
	if err != nil {
		return nil, err
	}
	base := platform.Alpha21264()
	var variants []ablationVariant
	for _, lat := range latencies {
		cfg := base.Pipeline
		cfg.Cache.Lat.L1 = lat
		variants = append(variants, ablationVariant{
			name: fmt.Sprintf("L1=%dcyc", lat), cfg: cfg, opts: compiler.Default(),
		})
	}
	return runVariants(ctx, s, p, variants, sz, fid)
}

// AblatePredictor measures the program on the Alpha model under
// different branch predictors.
func AblatePredictor(ctx context.Context, s *runner.Session, progName string, sz bio.Size, fid pipeline.Fidelity) ([]AblationResult, error) {
	p, err := bio.ByName(progName)
	if err != nil {
		return nil, err
	}
	base := platform.Alpha21264()
	preds := []struct {
		name string
		mk   func() bpred.Predictor
	}{
		{"hybrid", func() bpred.Predictor { return bpred.NewHybrid() }},
		{"bimodal", func() bpred.Predictor { return bpred.NewBimodal() }},
		{"always-taken", func() bpred.Predictor { return &bpred.Static{Taken: true} }},
	}
	var variants []ablationVariant
	for _, v := range preds {
		cfg := base.Pipeline
		cfg.Predictor = v.mk
		variants = append(variants, ablationVariant{name: v.name, cfg: cfg, opts: compiler.Default()})
	}
	return runVariants(ctx, s, p, variants, sz, fid)
}

// AblatePasses measures the program with compiler passes selectively
// disabled (always on the Alpha model), isolating the contribution of
// if-conversion and of the local scheduler.
func AblatePasses(ctx context.Context, s *runner.Session, progName string, sz bio.Size, fid pipeline.Fidelity) ([]AblationResult, error) {
	p, err := bio.ByName(progName)
	if err != nil {
		return nil, err
	}
	cfg := platform.Alpha21264().Pipeline
	passVariants := []struct {
		name string
		opts compiler.Options
	}{
		{"full-O2", compiler.Default()},
		{"no-ifconv", func() compiler.Options {
			o := compiler.Default()
			o.Opt.IfConvert = false
			return o
		}()},
		{"no-sched", func() compiler.Options {
			o := compiler.Default()
			o.Opt.Schedule = false
			return o
		}()},
		{"O0", func() compiler.Options {
			o := compiler.Default()
			o.Opt.Fold = false
			o.Opt.DCE = false
			o.Opt.IfConvert = false
			o.Opt.Schedule = false
			return o
		}()},
	}
	var variants []ablationVariant
	for _, v := range passVariants {
		variants = append(variants, ablationVariant{name: v.name, cfg: cfg, opts: v.opts})
	}
	return runVariants(ctx, s, p, variants, sz, fid)
}

// RenderAblation renders one ablation series.
func RenderAblation(title string, rows []AblationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: %s\n", title)
	fmt.Fprintf(&b, "%-14s %14s %14s %9s\n", "variant", "original", "transformed", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %14d %14d %8.1f%%\n",
			r.Variant, r.CyclesOrig, r.CyclesTrans, 100*r.Speedup())
	}
	return b.String()
}

// AblateRestrict reproduces the paper's Itanium `restrict` experiment
// on any platform: the ORIGINAL sources compiled normally, the
// original sources compiled with restrict-qualified pointer
// parameters (which unblocks global load hoisting and scheduling),
// and the hand-transformed sources. The paper reports that on the
// Itanium the restrict baseline and the hand-transformed code perform
// similarly.
func AblateRestrict(ctx context.Context, s *runner.Session, progName, platName string, sz bio.Size, fid pipeline.Fidelity) ([]AblationResult, error) {
	p, err := bio.ByName(progName)
	if err != nil {
		return nil, err
	}
	plat, err := platform.ByName(platName)
	if err != nil {
		return nil, err
	}
	plat.Pipeline.Fidelity = fid
	opts := compiler.Options{
		Opt:          compiler.Default().Opt,
		AllocIntRegs: plat.AllocIntRegs,
		AllocFPRegs:  plat.AllocFPRegs,
	}
	restrictOpts := opts
	restrictOpts.Opt.RestrictParams = true

	jobs := []struct {
		transformed bool
		opts        compiler.Options
	}{
		{false, opts},         // baseline
		{false, restrictOpts}, // original + restrict-qualified params
		{true, opts},          // hand-transformed
	}
	cycles := make([]uint64, len(jobs))
	err = s.ForEach(ctx, len(jobs), func(i int) error {
		st, err := s.EvaluateOpts(ctx, p, plat.Pipeline, jobs[i].opts, sz, jobs[i].transformed)
		if err != nil {
			return err
		}
		cycles[i] = st.Cycles
		return nil
	})
	if err != nil {
		return nil, err
	}
	base, restr, trans := cycles[0], cycles[1], cycles[2]
	return []AblationResult{
		{Variant: "baseline", CyclesOrig: base, CyclesTrans: base},
		{Variant: "baseline+restrict", CyclesOrig: base, CyclesTrans: restr},
		{Variant: "hand-transformed", CyclesOrig: base, CyclesTrans: trans},
	}, nil
}

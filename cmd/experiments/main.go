// Command experiments regenerates every table and figure of the
// paper's evaluation and prints them in order. The -size flag selects
// the characterization input scale and -timing the Table 8/Figure 9
// scale (the paper profiles with class-B inputs and times with
// class-C). Timing experiments run on the fast scoreboard tier by
// default; -fidelity full reproduces the exact paper cells on the
// cycle-level model, and -sweep adds the machine-grid sweep the fast
// tier makes affordable. All experiments share one analysis session:
// each kernel is compiled once and functionally simulated once, every
// analyzer reads from that shared run, and independent simulations fan
// out across -j worker goroutines with deterministic output. SIGINT
// and SIGTERM cancel the session's in-flight simulations.
//
// With -bench-json, timing experiments are re-measured -bench-samples
// times (best-of-N wall time, fast tier), and Table 8 is additionally
// timed on the other tier so the record always carries both.
//
//	go run ./cmd/experiments -size classB -timing classB -j 8 \
//	    -fidelity full -sweep -bench-json BENCH_experiments.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bioperfload/internal/bio"
	"bioperfload/internal/experiments"
	"bioperfload/internal/pipeline"
	"bioperfload/internal/runner"
)

// onlyNames are the -only selector values, in output order.
var onlyNames = []string{
	"fig1", "tab1", "fig2", "tab2", "tab4", "tab5", "tab6", "tab7",
	"tab8", "fig9", "sweep", "ablations",
}

// config is one fully validated command line.
type config struct {
	size         bio.Size
	timing       bio.Size
	only         string
	ablations    bool
	sweep        bool
	jobs         int
	benchJSON    string
	benchSamples int
	fidelity     pipeline.Fidelity
	accuracy     runner.Accuracy
}

// parseArgs parses and validates the command line. Unknown flags,
// unknown -size/-timing/-only values, negative -j values, and stray
// positional arguments all return an error (main exits non-zero)
// instead of being silently absorbed.
func parseArgs(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sizeFlag := fs.String("size", "classB", "characterization input size (test|classB|classC)")
	timingFlag := fs.String("timing", "classB", "Table 8 / Figure 9 input size")
	only := fs.String("only", "", "run a single experiment (fig1|tab1|fig2|tab2|tab4|tab5|tab6|tab7|tab8|fig9|sweep|ablations)")
	ablations := fs.Bool("ablations", false, "also run the causal ablations (L1 latency, predictor, passes, restrict)")
	sweep := fs.Bool("sweep", false, "also run the machine-grid sweep (always on the fast tier)")
	jobs := fs.Int("j", 0, "max concurrent simulations (0 = GOMAXPROCS, 1 = sequential)")
	benchJSON := fs.String("bench-json", "", "write per-experiment wall-time and instruction counts to this file")
	benchSamples := fs.Int("bench-samples", 3, "fast-tier timing samples per experiment when -bench-json is set (best-of-N)")
	fidelity := fs.String("fidelity", "fast", "timing tier for Table 8/Figure 9 and ablations (fast|full)")
	accuracy := fs.String("accuracy", "exact", "characterization tier for Figure 1 / Tables 1-4 (exact|sampled)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	cfg := &config{
		only: *only, ablations: *ablations, sweep: *sweep,
		jobs: *jobs, benchJSON: *benchJSON, benchSamples: *benchSamples,
	}
	var err error
	if cfg.size, err = bio.ParseSize(*sizeFlag); err != nil {
		return nil, fmt.Errorf("-size: %w", err)
	}
	if cfg.timing, err = bio.ParseSize(*timingFlag); err != nil {
		return nil, fmt.Errorf("-timing: %w", err)
	}
	if cfg.fidelity, err = pipeline.ParseFidelity(*fidelity); err != nil {
		return nil, fmt.Errorf("-fidelity: %w", err)
	}
	if cfg.accuracy, err = runner.ParseAccuracy(*accuracy); err != nil {
		return nil, fmt.Errorf("-accuracy: %w", err)
	}
	if cfg.jobs < 0 {
		return nil, fmt.Errorf("-j: invalid worker count %d (must be >= 0; 0 = GOMAXPROCS)", cfg.jobs)
	}
	if cfg.benchSamples < 1 {
		return nil, fmt.Errorf("-bench-samples: invalid sample count %d (must be >= 1)", cfg.benchSamples)
	}
	if cfg.only != "" {
		ok := false
		for _, n := range onlyNames {
			if cfg.only == n {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("-only: unknown experiment %q (valid: %v)", cfg.only, onlyNames)
		}
	}
	return cfg, nil
}

// benchEntry is one experiment's perf record in the -bench-json file.
// Timing experiments carry their tier and, when sampled more than
// once, every sample; WallSeconds is the best (minimum) sample.
type benchEntry struct {
	Experiment          string    `json:"experiment"`
	Fidelity            string    `json:"fidelity,omitempty"`
	WallSeconds         float64   `json:"wall_seconds"`
	SamplesSeconds      []float64 `json:"samples_seconds,omitempty"`
	DynamicInstructions uint64    `json:"dynamic_instructions,omitempty"`
}

// minSample returns the best (minimum) wall time of a sample set.
func minSample(samples []float64) float64 {
	best := samples[0]
	for _, s := range samples[1:] {
		if s < best {
			best = s
		}
	}
	return best
}

// benchFile is the -bench-json document: per-experiment wall time and
// dynamic instruction counts plus the session's cache counters, the
// perf trajectory record for future optimization PRs.
type benchFile struct {
	Size         string       `json:"size"`
	Timing       string       `json:"timing"`
	Fidelity     string       `json:"fidelity"`
	Jobs         int          `json:"jobs"`
	TotalSeconds float64      `json:"total_seconds"`
	Session      runner.Stats `json:"session"`
	Experiments  []benchEntry `json:"experiments"`
}

func main() {
	log.SetFlags(0)
	cfg, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, cfg *config, out io.Writer) error {
	sz, tsz := cfg.size, cfg.timing
	s := runner.NewSession(cfg.jobs)
	want := func(name string) bool { return cfg.only == "" || cfg.only == name }
	start := time.Now()

	var bench []benchEntry
	timed := func(name string, insts uint64, began time.Time) {
		bench = append(bench, benchEntry{
			Experiment:          name,
			WallSeconds:         time.Since(began).Seconds(),
			DynamicInstructions: insts,
		})
	}

	var profiles []*experiments.ProgramProfile
	needProfiles := want("fig1") || want("tab1") || want("tab2") || want("tab4")
	if needProfiles {
		log.Printf("characterizing the nine applications at %s (%s, j=%d)...", sz, cfg.accuracy, s.Jobs())
		began := time.Now()
		var err error
		profiles, err = experiments.CharacterizeSessionAccuracy(ctx, s, sz, cfg.accuracy)
		if err != nil {
			return err
		}
		var insts uint64
		for _, p := range profiles {
			insts += p.Instructions
		}
		timed("characterize", insts, began)
	}

	if want("fig1") {
		fmt.Fprintln(out, experiments.RenderFig1(experiments.Fig1(profiles)))
	}
	if want("tab1") {
		fmt.Fprintln(out, experiments.RenderTable1(experiments.Table1(profiles)))
	}
	if want("fig2") {
		began := time.Now()
		series, err := experiments.Fig2Session(ctx, s, sz)
		if err != nil {
			return err
		}
		timed("fig2", 0, began)
		fmt.Fprintln(out, experiments.RenderFig2(series))
	}
	if want("tab2") {
		fmt.Fprintln(out, experiments.RenderTable2(experiments.Table2(profiles)))
	}
	if want("tab4") {
		fmt.Fprintln(out, experiments.RenderTable4(experiments.Table4(profiles)))
	}
	if want("tab5") {
		began := time.Now()
		rows, err := experiments.Table5Session(ctx, s, sz, 8)
		if err != nil {
			return err
		}
		timed("tab5", 0, began)
		fmt.Fprintln(out, experiments.RenderTable5(rows))
	}
	if want("tab6") {
		fmt.Fprintln(out, experiments.RenderTable6(experiments.Table6()))
	}
	if want("tab7") {
		fmt.Fprintln(out, experiments.RenderTable7())
	}
	// samplesFor is how many times a timing experiment is re-measured:
	// best-of-N on the fast tier when recording a bench file, one run
	// otherwise (the full model is too slow to sample repeatedly).
	samplesFor := func(f pipeline.Fidelity) int {
		if cfg.benchJSON != "" && f == pipeline.FidelityFast {
			return cfg.benchSamples
		}
		return 1
	}
	runTab8 := func(f pipeline.Fidelity) ([]experiments.Table8Cell, error) {
		n := samplesFor(f)
		var cells []experiments.Table8Cell
		samples := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			began := time.Now()
			var err error
			cells, err = experiments.Table8SessionFidelity(ctx, s, tsz, f)
			if err != nil {
				return nil, err
			}
			samples = append(samples, time.Since(began).Seconds())
		}
		var insts uint64
		for _, c := range cells {
			insts += c.StatsOrig.Instructions + c.StatsTrans.Instructions
		}
		bench = append(bench, benchEntry{
			Experiment:          "tab8",
			Fidelity:            f.String(),
			WallSeconds:         minSample(samples),
			SamplesSeconds:      samples,
			DynamicInstructions: insts,
		})
		return cells, nil
	}
	if want("tab8") || want("fig9") {
		log.Printf("timing the six transformed applications at %s on four platforms (%s tier, j=%d)...",
			tsz, cfg.fidelity, s.Jobs())
		cells, err := runTab8(cfg.fidelity)
		if err != nil {
			return err
		}
		if want("tab8") {
			fmt.Fprintln(out, experiments.RenderTable8(cells))
		}
		if want("fig9") {
			fmt.Fprintln(out, experiments.RenderFig9(experiments.Fig9(cells)))
		}
		if cfg.benchJSON != "" {
			other := pipeline.FidelityFast
			if cfg.fidelity == pipeline.FidelityFast {
				other = pipeline.FidelityFull
			}
			log.Printf("re-timing Table 8 on the %s tier for the bench record...", other)
			if _, err := runTab8(other); err != nil {
				return err
			}
		}
	}
	if cfg.sweep || cfg.only == "sweep" {
		log.Printf("sweeping the machine grid at %s (fast tier)...", tsz)
		n := samplesFor(pipeline.FidelityFast)
		var rows []experiments.SweepRow
		samples := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			began := time.Now()
			var err error
			rows, err = experiments.SweepSession(ctx, s, tsz, nil)
			if err != nil {
				return err
			}
			samples = append(samples, time.Since(began).Seconds())
		}
		bench = append(bench, benchEntry{
			Experiment:     "sweep",
			Fidelity:       pipeline.FidelityFast.String(),
			WallSeconds:    minSample(samples),
			SamplesSeconds: samples,
		})
		fmt.Fprintln(out, experiments.RenderSweep(rows))
	}
	if cfg.ablations || cfg.only == "ablations" {
		log.Printf("running ablations on hmmsearch at %s (%s tier)...", tsz, cfg.fidelity)
		began := time.Now()
		if rows, err := experiments.AblateL1Latency(ctx, s, "hmmsearch", tsz, []int{1, 2, 3, 4, 5}, cfg.fidelity); err != nil {
			return err
		} else {
			fmt.Fprintln(out, experiments.RenderAblation("L1 hit latency sweep (Alpha model)", rows))
		}
		if rows, err := experiments.AblatePredictor(ctx, s, "hmmsearch", tsz, cfg.fidelity); err != nil {
			return err
		} else {
			fmt.Fprintln(out, experiments.RenderAblation("branch predictor (Alpha model)", rows))
		}
		if rows, err := experiments.AblatePasses(ctx, s, "hmmsearch", tsz, cfg.fidelity); err != nil {
			return err
		} else {
			fmt.Fprintln(out, experiments.RenderAblation("compiler passes (Alpha model)", rows))
		}
		for _, plat := range []string{"itanium2", "alpha21264"} {
			if rows, err := experiments.AblateRestrict(ctx, s, "hmmsearch", plat, tsz, cfg.fidelity); err != nil {
				return err
			} else {
				fmt.Fprintln(out, experiments.RenderAblation("restrict parameters ("+plat+")", rows))
			}
		}
		bench = append(bench, benchEntry{
			Experiment:  "ablations",
			Fidelity:    cfg.fidelity.String(),
			WallSeconds: time.Since(began).Seconds(),
		})
	}

	elapsed := time.Since(start)
	if cfg.benchJSON != "" {
		doc := benchFile{
			Size: sz.String(), Timing: tsz.String(),
			Fidelity: cfg.fidelity.String(), Jobs: s.Jobs(),
			TotalSeconds: elapsed.Seconds(),
			Session:      s.Stats(),
			Experiments:  bench,
		}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.benchJSON, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		log.Printf("wrote %s", cfg.benchJSON)
	}
	st := s.Stats()
	log.Printf("done in %v (%d compiles, %d compile-cache hits, %d runs, %d shared-run hits)",
		elapsed.Round(time.Millisecond), st.Compiles, st.CompileHits, st.Runs, st.CharacterizeHits)
	return nil
}

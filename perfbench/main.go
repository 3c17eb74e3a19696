// Command perfbench is the repository's benchmark. It measures the
// paper's pipeline — compile, simulate, characterize every committed
// load, serve the characterization, time original and load-transformed
// code — end to end and layer by layer, on the paper's fixed classB
// inputs, and checks every output it measures.
//
// Run it from the repository root through perfbench/run.sh:
//
//	bash perfbench/run.sh --workload cold-characterize --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the result: every end-to-end
// metric with --trace 0, every per-layer metric with --trace 1. The
// line before it is the full report: the host, each metric's sample
// count and quartiles, the checks that failed, the Table 8 drift of
// the checked-in experiments artifact and, for a traced run, where its
// spans were written. The exit code is non-zero when any check fails.
// README.md explains the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/isa"
	"bioperfload/internal/runner"
	"bioperfload/internal/simpoint"
)

// workers is the session width and GOMAXPROCS of every run, fixed so
// results from hosts with more CPUs stay comparable.
const workers = 2

// The three workloads. Each run repeats one workload's path; README.md
// says why each was chosen.
const (
	wlCold   = "cold-characterize"
	wlWarm   = "warm-serve"
	wlTable8 = "table8-timing"
)

var workloads = []string{wlCold, wlWarm, wlTable8}

// setupRepeats is how often a run sets up; setup_s is the median.
const setupRepeats = 9

// serveRounds is how many server rounds one warm pass runs. Each round
// serves every program once per tier, so a pass gives each tier
// 56 × 9 = 504 samples: p95 has 25 beyond it, enough for the tail to
// repeat from run to run, at about a second per pass.
const serveRounds = 56

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+fmt.Sprint(workloads))
	seed := fs.Int64("seed", 1, "seed for the request and trace orders")
	seconds := fs.Float64("seconds", 36, "how long to measure")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	root := fs.String("root", ".", "repository root")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(workers)
	e, err := newEnv(*root, bio.SizeB, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(e.workDir)
	rep, err := e.runWorkload(context.Background(), *workload, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !rep.Correct {
		for _, f := range rep.Failures {
			fmt.Fprintf(stderr, "perfbench: check failed: %s\n", f)
		}
		return 1
	}
	return 0
}

// env is one run's configuration and shared state.
type env struct {
	root, benchDir, workDir string
	size                    bio.Size
	seed                    int64
	rng                     *rand.Rand // request and trace orders

	// sp and tolerance configure the sampled tier and its check.
	sp        simpoint.Config
	tolerance func(program string) (float64, bool)

	checks            checks
	attempted, failed atomic.Int64

	progs            map[string]*isa.Program // the nine programs, compiled in setup
	coldRef          map[string]string       // rendered profiles of the first cold pass
	refFast, refFull table8Cycles
	firstT8          *t8Run
	drift            *drift
}

// newEnv prepares a run at size sz over the repository at root.
func newEnv(root string, sz bio.Size, seed int64) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	benchDir := filepath.Join(root, "perfbench")
	if _, err := os.Stat(filepath.Join(benchDir, "testdata")); err != nil {
		return nil, fmt.Errorf("benchmark data: %w", err)
	}
	work := filepath.Join(root, ".bench_build", "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	e := &env{
		root: root, benchDir: benchDir, workDir: workDir,
		size: sz, seed: seed,
		rng:       rand.New(rand.NewSource(seed)),
		tolerance: simpoint.ToleranceClassB,
	}
	return e, nil
}

func (e *env) count(n int, err error) {
	e.attempted.Add(int64(n))
	if err != nil {
		e.failed.Add(int64(n))
	}
}

// order returns ps in an order drawn from the seed.
func (e *env) order(ps []*bio.Program) []*bio.Program {
	out := append([]*bio.Program(nil), ps...)
	e.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// setup compiles the nine programs the warm paths rebind their traces
// to and loads the Table 8 references. It is what a run does before
// measuring, repeated setupRepeats times for setup_s.
func (e *env) setup() error {
	sess := runner.NewSession(workers)
	progs := make(map[string]*isa.Program)
	for _, p := range bio.All() {
		prog, err := sess.Compile(p, false, compiler.Default())
		if err != nil {
			return err
		}
		progs[p.Name] = prog
	}
	e.progs = progs
	var err error
	if e.refFast, err = readTable8(referencePath(e.benchDir, "fast", e.size.String())); err != nil {
		return err
	}
	if e.refFull, err = readTable8(referencePath(e.benchDir, "full", e.size.String())); err != nil {
		return err
	}
	if e.size == bio.SizeB {
		d, err := table8Drift(e.root, e.refFull)
		if err != nil {
			return err
		}
		e.drift = &d
	}
	return nil
}

// report is a run's outcome.
type report struct {
	Workload string  `json:"workload"`
	Traced   bool    `json:"traced"`
	Host     host    `json:"host"`
	Metrics  metrics `json:"metrics"`
	// Detail breaks an end-to-end pass into the figures README.md
	// names; it is reported but not part of the result line.
	Detail   metrics  `json:"detail,omitempty"`
	Correct  bool     `json:"correct"`
	Failures []string `json:"failures,omitempty"`
	Drift    *drift   `json:"table8_drift,omitempty"`
	Spans    string   `json:"spans_file,omitempty"`
	Attempt  int64    `json:"attempted"`
	Failed   int64    `json:"failed"`
	// ErrorRate is failed over attempted operations; a non-2xx or 429
	// response counts as failed.
	ErrorRate float64 `json:"error_rate"`
}

// write prints the full report, then the result line.
func (r *report) write(w io.Writer) error {
	full, err := json.Marshal(r)
	if err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]value, len(r.Metrics))
	for name, m := range r.Metrics {
		vals[name] = value{m.Value, m.Unit}
	}
	last, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempt, r.Failed, vals})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", full, last)
	return err
}

func (e *env) runWorkload(ctx context.Context, workload string, seconds time.Duration, traced bool) (*report, error) {
	known := false
	for _, w := range workloads {
		known = known || w == workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if err := e.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	var m, detail metrics
	var spansFile string
	var err error
	if traced {
		m, spansFile, err = e.traced(ctx, workload)
	} else {
		m, detail, err = e.measure(ctx, workload, seconds, setups)
	}
	if err != nil {
		return nil, err
	}
	failures := e.checks.list()
	return &report{
		Workload: workload, Traced: traced,
		Host:    hostInfo(e.root, e.seed),
		Metrics: m, Detail: detail, Correct: len(failures) == 0, Failures: failures,
		Drift: e.drift, Spans: spansFile,
		Attempt: e.attempted.Load(), Failed: e.failed.Load(),
		ErrorRate: float64(e.failed.Load()) / float64(max(e.attempted.Load(), 1)),
	}, nil
}

// measure is the end-to-end run: the workload's own path, pass after
// pass, while one more pass at the median length so far fits in the
// measuring time. It returns the end-to-end metrics and, for the
// report, the pass broken down into the figures README.md names.
// setups are the set-up times so far; warm-serve adds its store fill.
func (e *env) measure(ctx context.Context, workload string, seconds time.Duration, setups []float64) (m, detail metrics, err error) {
	parts := map[string][]float64{}
	var pass func() (float64, error)
	switch workload {
	case wlCold:
		pass = func() (float64, error) {
			c, err := e.coldPass(ctx)
			if err != nil {
				return 0, err
			}
			c.close()
			parts["cold_characterize_s"] = append(parts["cold_characterize_s"], c.wall.Seconds())
			return c.wall.Seconds(), nil
		}
	case wlWarm:
		// The store fill is this workload's set-up: it is a cold pass.
		start := time.Now()
		c, err := e.coldPass(ctx)
		if err != nil {
			return nil, nil, err
		}
		defer c.close()
		fill := time.Since(start).Seconds()
		for i := range setups {
			setups[i] += fill
		}
		pass = func() (float64, error) {
			w, err := e.warmPass(ctx, c, nil)
			if err != nil {
				return 0, err
			}
			parts["replay_characterize_s"] = append(parts["replay_characterize_s"], w.replayWall.Seconds())
			parts["sampled_characterize_s"] = append(parts["sampled_characterize_s"], w.sampledWall.Seconds())
			parts["snapshot_serve"] = append(parts["snapshot_serve"], w.snapshotMS...)
			parts["cached_serve"] = append(parts["cached_serve"], w.cachedMS...)
			return (w.serveWall + w.replayWall + w.sampledWall).Seconds(), nil
		}
	case wlTable8:
		pass = func() (float64, error) {
			t, err := e.table8Pass(ctx)
			if err != nil {
				return 0, err
			}
			parts["table8_fast_s"] = append(parts["table8_fast_s"], t.fastWall.Seconds())
			parts["table8_full_alpha_s"] = append(parts["table8_full_alpha_s"], t.fullWall.Seconds())
			return (t.fastWall + t.fullWall).Seconds(), nil
		}
	}

	start := time.Now()
	var passes []float64
	for len(passes) == 0 || time.Since(start).Seconds()+median(passes) <= seconds.Seconds() {
		settle()
		p, err := pass()
		if err != nil {
			return nil, nil, err
		}
		passes = append(passes, p)
	}

	m = metrics{}
	m.median("setup_s", "s", setups)
	m.median("pass_s", "s", passes)
	rss, ok := peakRSSMB()
	if !ok {
		return nil, nil, errors.New("peak RSS unavailable: no /proc/self/status")
	}
	m.value("peak_rss_mb", "MiB", rss)

	detail = metrics{}
	for name, v := range parts {
		if name != "snapshot_serve" && name != "cached_serve" {
			detail.median(name, "s", v)
			continue
		}
		p95, err := percentile(v, 95)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		q1, med, q3 := quartiles(v)
		detail[name+"_p50_ms"] = metric{Value: med, Unit: "ms", Samples: len(v), Q1: q1, Q3: q3}
		detail[name+"_p95_ms"] = metric{Value: p95, Unit: "ms", Samples: len(v), Q1: p95, Q3: p95}
	}
	return m, detail, nil
}

// traced is the per-layer run. It runs the workload's own path
// untraced, traced, and untraced again, and reports the layer figures
// of the traced pass and its overhead over the mean of the untraced
// ones, which bracket it in time.
func (e *env) traced(ctx context.Context, workload string) (metrics, string, error) {
	rec := newRecorder()
	m := metrics{}
	var untraced, traced func() (time.Duration, error)
	var report func(spans map[string]spanTotal)
	switch workload {
	case wlCold:
		var first *coldRun
		untraced = func() (time.Duration, error) {
			c, err := e.coldPass(ctx)
			if err != nil {
				return 0, err
			}
			c.close()
			if first == nil {
				first = c
			}
			return c.wall, nil
		}
		var l coldLayers
		traced = func() (wall time.Duration, err error) {
			l, wall, err = e.tracedColdPass(ctx, rec)
			return wall, err
		}
		report = func(spans map[string]spanTotal) { e.coldLayerMetrics(m, first, l, spans) }
	case wlWarm:
		c, err := e.coldPass(ctx)
		if err != nil {
			return nil, "", err
		}
		defer c.close()
		var w *warmRun
		pass := func(r *recorder) (time.Duration, error) {
			var err error
			w, err = e.warmPass(ctx, c, r)
			if err != nil {
				return 0, err
			}
			return w.serveWall + w.replayWall + w.sampledWall, nil
		}
		var tw *warmRun
		untraced = func() (time.Duration, error) { return pass(nil) }
		traced = func() (time.Duration, error) {
			d, err := pass(rec)
			tw = w
			return d, err
		}
		report = func(map[string]spanTotal) { e.warmLayerMetrics(m, tw) }
	case wlTable8:
		var first *t8Run
		untraced = func() (time.Duration, error) {
			t, err := e.table8Pass(ctx)
			if err != nil {
				return 0, err
			}
			if first == nil {
				first = t
			}
			return t.fastWall + t.fullWall, nil
		}
		var l t8Layers
		traced = func() (wall time.Duration, err error) {
			l, wall, err = e.tracedTable8(ctx, rec, first)
			return wall, err
		}
		report = func(spans map[string]spanTotal) { e.table8LayerMetrics(m, l, spans) }
	}

	var passes [3]float64
	for i, pass := range []func() (time.Duration, error){untraced, traced, untraced} {
		settle()
		d, err := pass()
		if err != nil {
			return nil, "", err
		}
		passes[i] = d.Seconds()
	}
	m.value("trace.overhead_pct", "%", 100*(passes[1]/((passes[0]+passes[2])/2)-1))
	if workload == wlCold {
		iso, err := e.isolation(ctx, rec)
		if err != nil {
			return nil, "", err
		}
		e.isolationMetrics(m, iso)
	}
	spans, err := rec.done()
	if err != nil {
		return nil, "", err
	}
	report(totalsByName(spans))
	if e.drift != nil {
		m.value("table8.stale_cells", "count", float64(e.drift.Cells))
	} else {
		m.absent("table8.stale_cells", "count", "the drift is defined against the classB artifact only")
	}
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m.absent(d.name, d.unit, d.absentFrom[workload])
		}
	}
	path := filepath.Join(filepath.Dir(e.workDir), fmt.Sprintf("spans-%s-seed%d.jsonl", workload, e.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, "", err
	}
	rel, _ := filepath.Rel(e.root, path)
	return m, rel, nil
}

// settle collects the previous pass's garbage before the next pass
// starts, so that it lands neither in that pass's time nor on its
// memory peak.
func settle() { runtime.GC() }

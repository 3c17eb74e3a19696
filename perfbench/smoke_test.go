package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"bioperfload/internal/bio"
	"bioperfload/internal/simpoint"
)

// testEnv is a run at test size: short traces sampled at a small
// interval, and the loose test-size error bound the runner's own
// sampled tests use.
func testEnv(t *testing.T, seed int64) *env {
	t.Helper()
	e, err := newEnv("..", bio.SizeTest, seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(e.workDir) })
	e.sp = simpoint.Config{IntervalSize: 16384, WarmupEvents: 4096}
	e.tolerance = func(string) (float64, bool) { return 15, true }
	return e
}

// endToEnd and layerNames are the metric names BENCHMARK.json lists.
func benchmarkNames(t *testing.T) (endToEnd, layers map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, layers = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layers[m.Name] = m.Unit
	}
	return endToEnd, layers
}

// detailNames are the figures each workload's report breaks a pass
// into.
var detailNames = map[string][]string{
	wlCold:   {"cold_characterize_s"},
	wlWarm:   {"replay_characterize_s", "sampled_characterize_s", "snapshot_serve_p50_ms", "snapshot_serve_p95_ms", "cached_serve_p50_ms", "cached_serve_p95_ms"},
	wlTable8: {"table8_fast_s", "table8_full_alpha_s"},
}

// TestSmoke runs every workload at test size, untraced and traced,
// with all its output checks, and checks that the result line carries
// exactly the metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	endToEnd, layers := benchmarkNames(t)
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			e := testEnv(t, 7)
			rep, err := e.runWorkload(context.Background(), wl, time.Second, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempt == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d: %v", wl, traced, rep.Correct, rep.Attempt, rep.Failed, rep.Failures)
			}
			want := endToEnd
			if traced {
				want = layers
			} else {
				for _, name := range detailNames[wl] {
					if d, ok := rep.Detail[name]; !ok || d.Value <= 0 || d.Samples == 0 {
						t.Errorf("%s: report detail %s = %+v", wl, name, d)
					}
				}
			}
			var out bytes.Buffer
			if err := rep.write(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatal(err)
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", wl, traced, len(last.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := last.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: no metric %s", wl, traced, name)
				case got.Unit != unit:
					t.Errorf("%s traced=%v: %s in %s, BENCHMARK.json says %s", wl, traced, name, got.Unit, unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", wl, name, got.Value)
				case traced && rep.Metrics[name].Value == 0 && rep.Metrics[name].Note == "" && !zeroAllowed[name]:
					t.Errorf("%s traced: %s is 0 without a reason", wl, name)
				}
			}
		}
	}
}

// zeroAllowed are per-layer counts that are legitimately 0 when
// measured: nothing failed, fell back or missed.
var zeroAllowed = map[string]bool{
	"runner.replay_serial_fallbacks": true, "runner.cold_chars": true, "runner.profile_hits": true,
	"runner.char_hits": true, "store.misses": true, "service.rejected": true,
	"table8.stale_cells": true, "trace.overhead_pct": true,
}

// TestChecksCatchWrongTable8 proves the Table 8 check bites: a pass
// compared against a corrupted reference fails the run.
func TestChecksCatchWrongTable8(t *testing.T) {
	e := testEnv(t, 1)
	if err := e.setup(); err != nil {
		t.Fatal(err)
	}
	k := cellKey("hmmsearch", "alpha21264")
	v := e.refFull[k]
	v[0]++
	e.refFull[k] = v
	if _, err := e.table8Pass(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(e.checks.list()) == 0 {
		t.Fatal("a Table 8 pass matched a corrupted reference")
	}
}

func TestParseTable8ReadsTheExperimentsArtifact(t *testing.T) {
	data, err := os.ReadFile("../experiments_classB.txt")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := parseTable8(string(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 24 {
		t.Fatalf("%d Table 8 cells, want 24", len(cells))
	}
	if got := cells[cellKey("hmmsearch", "alpha21264")]; got != [2]uint64{8508377, 6044107} {
		t.Errorf("hmmsearch/alpha21264 = %v", got)
	}
}

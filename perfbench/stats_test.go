package main

import (
	"math"
	"testing"
	"time"
)

func TestHighestPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	v := make([]float64, 199)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if _, err := percentile(v, 95); err == nil {
		t.Error("p95 of 199 samples accepted; it has fewer than 10 beyond it")
	}
	v = append(v, 200)
	p, err := percentile(v, 95)
	if err != nil {
		t.Fatal(err)
	}
	if p != 190 {
		t.Errorf("p95 of 1..200 = %g, want 190 (nearest rank)", p)
	}
}

// The quartiles must be the ones Python's statistics.quantiles(v, n=4)
// gives, extrapolation past the ends of small samples included.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v         []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 10}, 1.5, 3, 7},
		{[]float64{5, 1, 4, 2, 3, 9, 7, 8, 6, 10}, 2.75, 5.5, 8.25},
	} {
		q1, m, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(m-c.m) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.v, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildIntervals(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10, 40) once: 30 ms.
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 40 * ms},
		// A child running past its parent counts only inside it: 10 ms.
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms},
		// A grandchild reduces its own parent, not the root.
		{ID: 5, Parent: 2, Name: "d", Start: 12 * ms, End: 17 * ms},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 60 * ms, 2: 15 * ms, 3: 20 * ms, 4: 30 * ms, 5: 5 * ms} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	totals := totalsByName(spans)
	if got := totals["root"]; got.Count != 1 || got.Dur != 100*ms || got.Self != 60*ms {
		t.Errorf("root totals = %+v", got)
	}
}

func TestRecorderNilIsOff(t *testing.T) {
	var r *recorder
	if id := r.start(0, "x", "req"); id != 0 {
		t.Errorf("nil recorder returned span id %d", id)
	}
	r.end(0)
	r.add(0, "x", "req", time.Now(), time.Second)

	r = newRecorder()
	id := r.start(0, "open", "req")
	if _, err := r.done(); err == nil {
		t.Error("done accepted a span that never ended")
	}
	r.end(id)
	spans, err := r.done()
	if err != nil || len(spans) != 1 || spans[0].Name != "open" {
		t.Errorf("done = %v, %v", spans, err)
	}
}

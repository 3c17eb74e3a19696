package loadchar

import (
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/isa"
	"bioperfload/internal/sim"
)

// captureSlabs runs the program live, capturing the committed stream
// into owned slabs and the reference analysis at once.
func captureSlabs(t *testing.T, name string) (*isa.Program, *Analysis, [][]sim.Event) {
	t.Helper()
	p, err := bio.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.Compile(false, compiler.Default())
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Bind(m, bio.SizeTest); err != nil {
		t.Fatal(err)
	}
	live := New(prog)
	m.AddObserver(live)
	var slabs [][]sim.Event
	m.AddBatchObserver(batchFunc(func(evs []sim.Event) {
		slabs = append(slabs, append([]sim.Event(nil), evs...))
	}))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return prog, live, slabs
}

type batchFunc func([]sim.Event)

func (f batchFunc) ObserveBatch(evs []sim.Event) { f(evs) }

// TestObserveLegacyPathMatchesBatch checks the per-event Observer path
// (used by older call sites) agrees with the live analysis, and that a
// fresh Analysis fed the captured slabs through ObserveBatch does too:
// replaying recorded slabs and observing live are one code path.
func TestObserveLegacyPathMatchesBatch(t *testing.T) {
	prog, live, slabs := captureSlabs(t, "promlk")
	one := New(prog)
	batch := New(prog)
	for _, evs := range slabs {
		for i := range evs {
			one.Observe(&evs[i])
		}
		batch.ObserveBatch(evs)
	}
	want := RenderProfile("promlk", "test", live, 10)
	if got := RenderProfile("promlk", "test", one, 10); got != want {
		t.Errorf("per-event path differs from batch path")
	}
	if got := RenderProfile("promlk", "test", batch, 10); got != want {
		t.Errorf("slab replay through ObserveBatch differs from live")
	}
}

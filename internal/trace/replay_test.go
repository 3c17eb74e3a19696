package trace_test

import (
	"bytes"
	"context"
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/isa"
	"bioperfload/internal/loadchar"
	"bioperfload/internal/sim"
	"bioperfload/internal/trace"
)

// recordRun simulates one program at test size with a live analysis
// and a trace writer attached to the same machine, returning the
// program, the live profile text, the encoded trace, and the
// instruction count.
func recordRun(t *testing.T, name string) (*isa.Program, string, []byte, uint64) {
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
	live := loadchar.New(prog)
	m.AddObserver(live)
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf, trace.Meta{Program: name, Size: "test"}, prog)
	m.AddBatchObserver(tw)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(res, bio.SizeTest); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if tw.Events() != res.Instructions {
		t.Fatalf("%s: trace recorded %d events, run committed %d", name, tw.Events(), res.Instructions)
	}
	return prog, loadchar.RenderProfile(name, "test", live, 10), buf.Bytes(), res.Instructions
}

// TestReplayProfileGolden is the replay-fidelity golden test: a
// characterization computed from a recorded trace through the
// block-characterized column engine — on one worker, and with parallel
// chunk decode and sharded lanes — renders byte-identical to one
// computed live during simulation.
func TestReplayProfileGolden(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"hmmsearch", "predator"} {
		prog, want, data, insts := recordRun(t, name)
		ir, err := trace.NewIndexedReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ir.Meta().Program != name {
			t.Fatalf("%s: trace meta names %q", name, ir.Meta().Program)
		}
		if ir.TotalEvents() != insts {
			t.Fatalf("%s: trace holds %d events, want %d", name, ir.TotalEvents(), insts)
		}
		for _, w := range [][2]int{{1, 1}, {2, 4}} {
			cols := ir.Columns(ctx, prog, 0, ir.Chunks(), w[0])
			runs, err := loadchar.AnalyzeRuns(ctx, prog, cols, w[1])
			cols.Close()
			if err != nil {
				t.Fatalf("%s: column replay: %v", name, err)
			}
			if got := loadchar.RenderProfile(name, "test", runs, 10); got != want {
				t.Errorf("%s: column replay (decode %d, lanes %d) differs from live:\n--- live ---\n%s\n--- replay ---\n%s",
					name, w[0], w[1], want, got)
			}
		}
	}
}

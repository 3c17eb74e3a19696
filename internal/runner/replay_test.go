package runner

import (
	"bytes"
	"context"
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/loadchar"
	"bioperfload/internal/sim"
	"bioperfload/internal/trace"
)

// TestReplayAnalyzeWorkersMatchLive is the shard-fidelity
// golden test: ReplayAnalyze with shards forced on (small chunks, many
// workers) must render a profile byte-identical to both the sequential
// replay and the live analysis — the predictor and cache lane splits
// have to hide every shard boundary.
func TestReplayAnalyzeWorkersMatchLive(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"hmmsearch", "predator"} {
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
		m.AddBatchObserver(live)
		var buf bytes.Buffer
		// A tiny chunk size forces a multi-chunk trace at test size, so
		// jobs > 1 genuinely splits the index into shards.
		tw := trace.NewWriter(&buf, trace.Meta{Program: name, Size: "test", ChunkEvents: 4096}, prog)
		m.AddBatchObserver(tw)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		want := loadchar.RenderProfile(name, "test", live, 10)

		for _, jobs := range []int{1, 2, 4, 7} {
			ir, err := trace.NewIndexedReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if jobs > 1 && ir.Chunks() < 2 {
				t.Fatalf("%s: trace has %d chunks, cannot force sharding", name, ir.Chunks())
			}
			a, err := ReplayAnalyze(ctx, prog, ir, jobs)
			if err != nil {
				t.Fatalf("%s jobs=%d: %v", name, jobs, err)
			}
			if got := loadchar.RenderProfile(name, "test", a, 10); got != want {
				t.Errorf("%s jobs=%d: sharded replay profile differs from live:\n--- live ---\n%s\n--- sharded ---\n%s",
					name, jobs, want, got)
			}
		}
	}
}

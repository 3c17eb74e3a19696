package main

import (
	"context"
	"flag"
	"os"
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/experiments"
	"bioperfload/internal/pipeline"
	"bioperfload/internal/runner"
)

var (
	update = flag.Bool("update", false, "rewrite the Table 8 references from the current code")
	classB = flag.Bool("classB", false, "with -update, rewrite the classB references too (about a minute)")
)

// TestTable8References checks the test-size Table 8 references against
// the current code. With -update it rewrites them instead, and with
// -update -classB the classB ones as well; the benchmark's Table 8
// checks compare against these files.
func TestTable8References(t *testing.T) {
	sizes := []bio.Size{bio.SizeTest}
	if *update && *classB {
		sizes = append(sizes, bio.SizeB)
	}
	for _, sz := range sizes {
		for _, fid := range []pipeline.Fidelity{pipeline.FidelityFull, pipeline.FidelityFast} {
			cells, err := experiments.Table8SessionFidelity(context.Background(), runner.NewSession(workers), sz, fid)
			if err != nil {
				t.Fatal(err)
			}
			path := referencePath(".", fid.String(), sz.String())
			got := experiments.RenderTable8(cells)
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(want) != got {
				t.Errorf("%s is stale; rerun with -update:\n%s", path, got)
			}
		}
	}
}

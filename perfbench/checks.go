package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"bioperfload/internal/experiments"
)

// checks collects output-check failures. Any failure makes the run
// incorrect and the benchmark exit non-zero.
type checks struct {
	mu       sync.Mutex
	failures []string
}

func (c *checks) fail(format string, args ...any) {
	c.mu.Lock()
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

func (c *checks) list() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.failures...)
}

// table8Cycles maps "program/platform" to original and transformed
// cycles.
type table8Cycles map[string][2]uint64

func cellKey(program, platform string) string { return program + "/" + platform }

func cyclesOf(cells []experiments.Table8Cell) table8Cycles {
	out := make(table8Cycles, len(cells))
	for _, c := range cells {
		out[cellKey(c.Program, c.Platform)] = [2]uint64{c.CyclesOrig, c.CyclesTrans}
	}
	return out
}

// parseTable8 reads the cycle rows of a Table 8 rendering
// (experiments.RenderTable8) out of text, which may hold other tables
// before and after it.
func parseTable8(text string) (table8Cycles, error) {
	_, body, ok := strings.Cut(text, "Table 8:")
	if !ok {
		return nil, fmt.Errorf("no Table 8 in text")
	}
	out := make(table8Cycles)
	lines := strings.Split(body, "\n")
	for _, line := range lines[2:] { // title remainder, column header
		f := strings.Fields(line)
		if len(f) != 5 {
			break
		}
		orig, err1 := strconv.ParseUint(f[2], 10, 64)
		trans, err2 := strconv.ParseUint(f[3], 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad Table 8 row %q", line)
		}
		out[cellKey(f[0], f[1])] = [2]uint64{orig, trans}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty Table 8")
	}
	return out, nil
}

func readTable8(path string) (table8Cycles, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := parseTable8(string(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// referencePath names a checked-in reference: fidelity is "full" or
// "fast", size the bio size name.
func referencePath(benchDir, fidelity, size string) string {
	return filepath.Join(benchDir, "testdata", fmt.Sprintf("table8_%s_%s.txt", fidelity, size))
}

// compareCells returns one line per cell of got that differs from
// want or is missing there, in sorted order, naming the two sides.
func compareCells(want, got table8Cycles, wantName, gotName string) []string {
	var diffs []string
	for k, g := range got {
		w, ok := want[k]
		switch {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("%s: not in the %s", k, wantName))
		case w != g:
			diffs = append(diffs, fmt.Sprintf("%s: %s %d/%d, %s %d/%d", k, wantName, w[0], w[1], gotName, g[0], g[1]))
		}
	}
	sort.Strings(diffs)
	return diffs
}

// drift records how the checked-in experiments artifact differs from
// what the current code computes. It is reported, never hidden and
// never a failure: regenerating the artifact is separate work.
type drift struct {
	File  string   `json:"file"`
	Cells int      `json:"cells_differing"`
	Which []string `json:"cells"`
}

// table8Drift compares the Table 8 of the checked-in experiments
// artifact with the current full-fidelity reference.
func table8Drift(root string, current table8Cycles) (drift, error) {
	const file = "experiments_classB.txt"
	d := drift{File: file}
	recorded, err := readTable8(filepath.Join(root, file))
	if err != nil {
		return d, err
	}
	d.Which = compareCells(recorded, current, "file", "current")
	d.Cells = len(d.Which)
	return d, nil
}

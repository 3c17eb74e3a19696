package bio

import (
	"testing"

	"bioperfload/internal/compiler"
	"bioperfload/internal/ir"
)

// implemented returns the programs that are already ported (stubs
// panic); once all nine exist this is All().
func implemented() []*Program { return All() }

// TestProgramsValidate runs every program at test size, original and
// (where available) transformed, across compiler configurations, and
// checks the output against the Go reference.
func TestProgramsValidate(t *testing.T) {
	for _, p := range implemented() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			configs := []compiler.Options{
				{Opt: ir.O2()},
				{Opt: ir.O0()},
				{Opt: ir.O2(), AllocIntRegs: 8, AllocFPRegs: 8},
				{Opt: ir.O2(), AllocIntRegs: 48, AllocFPRegs: 48},
			}
			for ci, opts := range configs {
				if _, err := p.Run(false, SizeTest, opts); err != nil {
					t.Errorf("config %d original: %v", ci, err)
				}
				if p.Transformable {
					if _, err := p.Run(true, SizeTest, opts); err != nil {
						t.Errorf("config %d transformed: %v", ci, err)
					}
				}
			}
		})
	}
}

// TestParseSize: every size parses back from its String form, the
// short forms are accepted, and anything else is an error.
func TestParseSize(t *testing.T) {
	for _, sz := range []Size{SizeTest, SizeB, SizeC} {
		if got, err := ParseSize(sz.String()); err != nil || got != sz {
			t.Errorf("ParseSize(%q) = %v, %v", sz.String(), got, err)
		}
	}
	for in, want := range map[string]Size{"b": SizeB, "B": SizeB, "c": SizeC, "C": SizeC} {
		if got, err := ParseSize(in); err != nil || got != want {
			t.Errorf("ParseSize(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "classA", "Test"} {
		if _, err := ParseSize(in); err == nil {
			t.Errorf("ParseSize(%q) accepted", in)
		}
	}
}

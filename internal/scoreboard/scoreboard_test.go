package scoreboard

import (
	"testing"

	"bioperfload/internal/bpred"
	"bioperfload/internal/cache"
	"bioperfload/internal/isa"
	"bioperfload/internal/pipeline"
	"bioperfload/internal/sim"
)

// newTestModel builds a model on a 4-wide machine with the paper's
// cache latencies and a 20-cycle divide, then applies mut.
func newTestModel(mut func(*pipeline.Config)) *Model {
	cfg := pipeline.Config{
		FetchWidth:        4,
		IssueWidth:        4,
		RetireWidth:       4,
		WindowSize:        64,
		FrontEndDepth:     5,
		MispredictPenalty: 10,
		IntDivLat:         20,
		Cache:             cache.PaperConfig(),
	}
	if mut != nil {
		mut(&cfg)
	}
	return NewModel(cfg)
}

// Synthetic committed-instruction events. The model only looks at
// Inst, Addr, PC, and Taken, so the tests fabricate streams directly
// instead of running the functional simulator.

// addImm is `add rD = r31 + 1`: no sources (r31 is the zero register),
// unit latency.
func addImm(dst uint8) sim.Event {
	return sim.Event{Inst: &isa.Inst{Op: isa.OpAdd, Rd: dst, Ra: isa.RZero, HasImm: true, Imm: 1}}
}

// addReg is `add rD = rS + 1`: one register source.
func addReg(dst, src uint8) sim.Event {
	return sim.Event{Inst: &isa.Inst{Op: isa.OpAdd, Rd: dst, Ra: src, HasImm: true, Imm: 1}}
}

// divImm is `div rD = r31 / 2`: no sources, IntDivLat latency.
func divImm(dst uint8) sim.Event {
	return sim.Event{Inst: &isa.Inst{Op: isa.OpDiv, Rd: dst, Ra: isa.RZero, HasImm: true, Imm: 2}}
}

func loadAt(dst uint8, addr uint64) sim.Event {
	return sim.Event{Inst: &isa.Inst{Op: isa.OpLdq, Rd: dst, Ra: isa.RZero}, Addr: addr}
}

func storeAt(data uint8, addr uint64) sim.Event {
	return sim.Event{Inst: &isa.Inst{Op: isa.OpStq, Ra: isa.RZero, Rb: data}, Addr: addr}
}

func condBranch(pc int32, taken bool) sim.Event {
	return sim.Event{Inst: &isa.Inst{Op: isa.OpBne, Ra: isa.RZero}, PC: pc, Taken: taken}
}

func cycles(m *Model) uint64 { return m.Stats().Cycles }

// An independent stream retires at the machine width: N source-free
// adds on a 4-wide machine take about N/4 cycles.
func TestIndependentStreamThroughput(t *testing.T) {
	m := newTestModel(nil)
	const n = 4096
	evs := make([]sim.Event, 0, n)
	for i := 0; i < n; i++ {
		evs = append(evs, addImm(uint8(1+i%8)))
	}
	m.ObserveBatch(evs)
	got := cycles(m)
	if got < n/4 || got > n/4+8 {
		t.Errorf("independent stream: %d cycles, want about %d", got, n/4)
	}
}

// A single dependence chain serializes completely: N dependent
// unit-latency adds take about N cycles regardless of width.
func TestDependentChainSerializes(t *testing.T) {
	m := newTestModel(nil)
	const n = 4096
	evs := make([]sim.Event, 0, n)
	for i := 0; i < n; i++ {
		evs = append(evs, addReg(1, 1))
	}
	m.ObserveBatch(evs)
	got := cycles(m)
	if got < n || got > n+8 {
		t.Errorf("dependent chain: %d cycles, want about %d", got, n)
	}
}

// The cursor advances at the narrowest of the three machine widths —
// the Pentium 4's retire width 3 is what actually caps its IPC.
func TestWidthIsNarrowestMachineWidth(t *testing.T) {
	cases := []struct {
		fetch, issue, retire, want int
	}{
		{4, 4, 4, 4},
		{3, 4, 3, 3}, // Pentium 4 shape
		{6, 6, 6, 6},
		{4, 2, 4, 2},
		{1, 4, 4, 1},
	}
	for _, c := range cases {
		m := newTestModel(func(cfg *pipeline.Config) {
			cfg.FetchWidth, cfg.IssueWidth, cfg.RetireWidth = c.fetch, c.issue, c.retire
		})
		if m.width != c.want {
			t.Errorf("widths %d/%d/%d: cursor rate %d, want %d",
				c.fetch, c.issue, c.retire, m.width, c.want)
		}
	}
}

// On an in-order core a late operand holds every later instruction
// back; out of order, independent work flows past the stalled one.
// The same stream must therefore cost several times more in order.
func TestInOrderStallsOnLateOperands(t *testing.T) {
	var evs []sim.Event
	for i := 0; i < 64; i++ {
		evs = append(evs, divImm(1))    // 20-cycle producer
		evs = append(evs, addReg(2, 1)) // consumer stalls on it
		for d := uint8(3); d < 7; d++ {
			evs = append(evs, addImm(d)) // independent filler
		}
	}
	ooo := newTestModel(nil)
	ooo.ObserveBatch(evs)
	ino := newTestModel(func(cfg *pipeline.Config) { cfg.InOrder = true })
	ino.ObserveBatch(evs)
	if c1, c2 := cycles(ino), cycles(ooo); c1 < 3*c2 {
		t.Errorf("in-order %d cycles, out-of-order %d: want in-order >= 3x", c1, c2)
	}
}

// A full window stops dispatch: long-latency instructions that overlap
// freely in a large window serialize in a small one.
func TestWindowFullStallsDispatch(t *testing.T) {
	const n = 400
	evs := make([]sim.Event, 0, n)
	for i := 0; i < n; i++ {
		evs = append(evs, divImm(uint8(1+i%8)))
	}
	big := newTestModel(nil) // window 64
	big.ObserveBatch(evs)
	small := newTestModel(func(cfg *pipeline.Config) { cfg.WindowSize = 4 })
	small.ObserveBatch(evs)
	if c1, c2 := cycles(small), cycles(big); c1 < 3*c2 {
		t.Errorf("window 4: %d cycles, window 64: %d: want >= 3x", c1, c2)
	}
}

// A load that hits a recent store's address waits for the store's
// data: if the store's value arrived late, the dependence carries
// through memory into the load's result. Both runs store to and load
// from the same word — identical cache behavior — and differ only in
// when the stored value is ready.
func TestStoreForwardingDelaysDependentLoad(t *testing.T) {
	run := func(producer sim.Event) int64 {
		m := newTestModel(nil)
		m.ObserveBatch([]sim.Event{
			producer,           // defines r1, early or late
			storeAt(1, 0x4008), // store waits for r1
			loadAt(3, 0x4008),  // aliases the store, waits for its data
		})
		return m.regReady[3]
	}
	late := run(divImm(1))  // r1 ready around cycle 20
	early := run(addImm(1)) // r1 ready at cycle 1
	if late < early+15 {
		t.Errorf("load after late store ready at %d, after early store at %d: want the divide's latency to carry through",
			late, early)
	}
	if late < 21 {
		t.Errorf("forwarded load ready at %d, want >= 21 (store completion)", late)
	}
}

// Mispredicted branches stall the front end: each miss jumps the
// cursor past the branch's resolution plus the redirect cost.
func TestMispredictRedirectStalls(t *testing.T) {
	m := newTestModel(nil)
	rng := uint64(12345)
	const n = 2000
	evs := make([]sim.Event, 0, n)
	for i := 0; i < n; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		evs = append(evs, condBranch(int32(i%17), rng&1 == 0))
	}
	m.ObserveBatch(evs)
	s := m.Stats()
	if s.CondBranches != n {
		t.Fatalf("CondBranches = %d, want %d", s.CondBranches, n)
	}
	// A random stream defeats the predictor on a large fraction of
	// branches; each miss costs MispredictPenalty+FrontEndDepth (15)
	// plus the branch's own resolution.
	if s.Mispredicts < n/5 || s.Mispredicts > 4*n/5 {
		t.Fatalf("Mispredicts = %d on a random stream of %d", s.Mispredicts, n)
	}
	if min := s.Mispredicts * 15; s.Cycles < min {
		t.Errorf("Cycles = %d with %d misses, want >= %d", s.Cycles, s.Mispredicts, min)
	}
}

// The scoreboard honours cfg.Predictor, as the full model does: on a
// loop back-edge taken every time, the default hybrid learns the
// branch while an injected always-not-taken predictor misses it on
// every execution.
func TestCustomPredictorInjection(t *testing.T) {
	const n = 500
	evs := make([]sim.Event, 0, n)
	for i := 0; i < n; i++ {
		evs = append(evs, condBranch(7, true))
	}
	def := newTestModel(nil)
	def.ObserveBatch(evs)
	if s := def.Stats(); s.Mispredicts > 5 {
		t.Fatalf("default hybrid: %d mispredicts on an always-taken branch", s.Mispredicts)
	}
	custom := newTestModel(func(c *pipeline.Config) {
		c.Predictor = func() bpred.Predictor { return &bpred.Static{Taken: false} }
	})
	custom.ObserveBatch(evs)
	if s := custom.Stats(); s.Mispredicts != n {
		t.Fatalf("always-not-taken: %d mispredicts, want %d", s.Mispredicts, n)
	}
}

// Finalize with a larger total extrapolates cycles and event counters
// by total/observed and reports the exact instruction count.
func TestFinalizeExtrapolates(t *testing.T) {
	m := newTestModel(nil)
	var evs []sim.Event
	for i := 0; i < 800; i++ {
		evs = append(evs, addImm(uint8(1+i%8)))
	}
	for i := 0; i < 200; i++ {
		evs = append(evs, loadAt(9, uint64(0x10000+64*i)))
	}
	m.ObserveBatch(evs)
	raw := m.Stats()
	if raw.Instructions != 1000 || raw.Loads != 200 {
		t.Fatalf("raw stats: %d insts, %d loads", raw.Instructions, raw.Loads)
	}

	m.Finalize(10_000)
	s := m.Stats()
	if s.Instructions != 10_000 {
		t.Errorf("Instructions = %d, want 10000", s.Instructions)
	}
	if s.Cycles != raw.Cycles*10 {
		t.Errorf("Cycles = %d, want %d (10x raw)", s.Cycles, raw.Cycles*10)
	}
	if s.Loads != raw.Loads*10 {
		t.Errorf("Loads = %d, want %d", s.Loads, raw.Loads*10)
	}
	if s.L1Hits+s.L2Hits+s.MemHits != s.Loads {
		t.Errorf("cache level counts %d+%d+%d don't sum to %d loads",
			s.L1Hits, s.L2Hits, s.MemHits, s.Loads)
	}
}

// Finalize with the observed count (an unsampled run) changes nothing.
func TestFinalizeExactWhenUnsampled(t *testing.T) {
	m := newTestModel(nil)
	var evs []sim.Event
	for i := 0; i < 500; i++ {
		evs = append(evs, addImm(1))
	}
	m.ObserveBatch(evs)
	raw := m.Stats()
	m.Finalize(500)
	if s := m.Stats(); s != raw {
		t.Errorf("Finalize(observed) changed stats: %+v vs %+v", s, raw)
	}
}

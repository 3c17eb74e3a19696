package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"time"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/isa"
	"bioperfload/internal/loadchar"
	"bioperfload/internal/runner"
	"bioperfload/internal/sim"
	"bioperfload/internal/store"
	"bioperfload/internal/trace"
)

// hot is the hot-load count every rendered profile uses; it is the
// service's default, so served reports compare byte for byte.
const hot = 6

func render(name string, sz bio.Size, a *loadchar.Analysis) string {
	return loadchar.RenderProfile(name, sz.String(), a, hot)
}

// coldRun is one cold characterization of the nine programs into a
// fresh store. The store stays open: it is what the warm paths serve.
type coldRun struct {
	dir      string
	st       *store.Store
	profiles []*runner.Profile
	renders  map[string]string
	stats    runner.Stats
	wall     time.Duration
}

func (c *coldRun) close() {
	c.st.Close()
	os.RemoveAll(c.dir)
}

func (e *env) newStore() (string, *store.Store, error) {
	dir, err := os.MkdirTemp(e.workDir, "store-")
	if err != nil {
		return "", nil, err
	}
	st, err := store.Open(dir, 0)
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	return dir, st, nil
}

// coldPass runs the cold-characterize path as a user meets it: a new
// session over an empty store characterizes all nine programs.
func (e *env) coldPass(ctx context.Context) (*coldRun, error) {
	dir, st, err := e.newStore()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	sess := runner.NewSessionWithStore(workers, st)
	profs, err := sess.CharacterizeAll(ctx, e.size)
	wall := time.Since(start)
	e.count(len(bio.All()), err)
	if err != nil {
		st.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("cold characterize: %w", err)
	}
	c := &coldRun{dir: dir, st: st, profiles: profs, renders: make(map[string]string), stats: sess.Stats(), wall: wall}
	for _, p := range profs {
		if p.Source != "cold" {
			e.checks.fail("cold: %s served from %q, want cold", p.Name, p.Source)
		}
		c.renders[p.Name] = render(p.Name, e.size, p.Analysis)
	}
	if c.stats.ColdChars != uint64(len(profs)) {
		e.checks.fail("cold: %d cold characterizations, want %d", c.stats.ColdChars, len(profs))
	}
	if e.coldRef == nil {
		e.coldRef = c.renders
	} else {
		for name, r := range c.renders {
			if e.coldRef[name] != r {
				e.checks.fail("cold: %s profile differs between passes", name)
			}
		}
	}
	return c, nil
}

// Store keys and the snapshot artifact as the runner persists them.
// The traced cold path writes the same entries, and checks afterwards
// that a runner session serves all of them as snapshots, so a change
// to the runner's keying shows up as a failed check rather than as a
// traced run that quietly does different work.
func progKey(fp string) string               { return "prog|" + fp }
func traceKey(fp string, sz bio.Size) string { return "trace|" + fp + "|" + sz.String() }
func profKey(fp string, sz bio.Size) string  { return "prof|" + fp + "|" + sz.String() }

type profileArtifact struct {
	Fingerprint  string
	Instructions uint64
	Snap         *loadchar.Snapshot
}

// coldLayers holds the traced cold path's layer counters for one
// program; add sums them.
type coldLayers struct {
	compiles     int
	instructions uint64
	runWall      time.Duration // sim.run spans
	liveBusy     time.Duration // loadchar.Analysis.ObserveBatch
	writerBusy   time.Duration // trace.Writer.ObserveBatch, trace store writes included
	writerClose  time.Duration // trace.Writer.Close, trace store writes included
	traceWrite   time.Duration // trace bytes into the store entry
	storeWrite   time.Duration // bytes into store entries (trace stream and puts)
	storeCommit  time.Duration
	traceBytes   int64
	bytesWritten int64
	traceEvents  uint64
}

func (l *coldLayers) add(o coldLayers) {
	l.compiles += o.compiles
	l.instructions += o.instructions
	l.runWall += o.runWall
	l.liveBusy += o.liveBusy
	l.writerBusy += o.writerBusy
	l.writerClose += o.writerClose
	l.traceWrite += o.traceWrite
	l.storeWrite += o.storeWrite
	l.storeCommit += o.storeCommit
	l.traceBytes += o.traceBytes
	l.bytesWritten += o.bytesWritten
	l.traceEvents += o.traceEvents
}

// tracedColdProgram characterizes one program cold through the same
// public calls the runner makes, with every layer timed: compile,
// sim.New, Bind, the live analysis and the trace writer as batch
// observers, RunContext, Validate, writer Close, entry Commit and the
// snapshot put.
func (e *env) tracedColdProgram(ctx context.Context, rec *recorder, st *store.Store, p *bio.Program, l *coldLayers) (*loadchar.Analysis, error) {
	req := "cold/" + p.Name
	root := rec.start(0, "runner.characterize", req)
	defer rec.end(root)
	fp := runner.Fingerprint(p, false, compiler.Default())
	timed := func(name string, f func() error) error {
		id := rec.start(root, name, req)
		defer rec.end(id)
		return f()
	}

	// The runner's misses before it simulates: snapshot, trace, binary.
	timed("store.get", func() error {
		st.GetBytes(profKey(fp, e.size))
		if rc, _, ok := st.OpenReader(traceKey(fp, e.size)); ok {
			rc.Close()
		}
		st.GetBytes(progKey(fp))
		return nil
	})
	var prog *isa.Program
	err := timed("compiler.compile", func() (err error) {
		prog, err = p.Compile(false, compiler.Default())
		if err == nil {
			prog.Symbol("")
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	l.compiles++
	var progBytes bytes.Buffer
	if err := gob.NewEncoder(&progBytes).Encode(prog); err != nil {
		return nil, err
	}
	if err := timedPut(rec, root, req, st, progKey(fp), progBytes.Bytes(), l); err != nil {
		return nil, err
	}

	m, err := sim.New(prog)
	if err != nil {
		return nil, err
	}
	if err := p.Bind(m, e.size); err != nil {
		return nil, fmt.Errorf("%s: bind: %w", p.Name, err)
	}
	a := loadchar.New(prog)
	live := &timedObserver{inner: a}
	m.AddBatchObserver(live)
	ew, err := st.Create(traceKey(fp, e.size))
	if err != nil {
		return nil, err
	}
	sink := &timedWriter{inner: ew}
	tw := trace.NewWriter(sink, trace.Meta{Program: p.Name, Fingerprint: fp, Size: e.size.String()}, prog)
	rw := &timedObserver{inner: tw}
	m.AddBatchObserver(rw)

	runStart := time.Now()
	runID := rec.start(root, "sim.run", req)
	res, err := m.RunContext(ctx)
	rec.end(runID)
	runWall := time.Since(runStart)
	// The observers' busy time, laid end to end inside the run span, so
	// the run's self time is the simulator's own.
	rec.add(runID, "loadchar.live", req, runStart, live.busy)
	rec.add(runID, "trace.encode", req, runStart.Add(live.busy), rw.busy)
	if err != nil {
		ew.Abort()
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	if err := timed("bio.validate", func() error { return p.Validate(res, e.size) }); err != nil {
		ew.Abort()
		return nil, err
	}
	closeStart := time.Now()
	err = timed("trace.close", tw.Close)
	closeWall := time.Since(closeStart)
	if err != nil || tw.Events() != res.Instructions {
		ew.Abort()
		return nil, fmt.Errorf("%s: trace close: %v (%d events, %d committed)", p.Name, err, tw.Events(), res.Instructions)
	}
	commitStart := time.Now()
	if err := timed("store.commit", ew.Commit); err != nil {
		return nil, err
	}
	commitWall := time.Since(commitStart)

	var snap bytes.Buffer
	art := profileArtifact{Fingerprint: fp, Instructions: res.Instructions, Snap: a.Snapshot()}
	if err := gob.NewEncoder(&snap).Encode(&art); err != nil {
		return nil, err
	}
	if err := timedPut(rec, root, req, st, profKey(fp, e.size), snap.Bytes(), l); err != nil {
		return nil, err
	}

	l.instructions += res.Instructions
	l.runWall += runWall
	l.liveBusy += live.busy
	l.writerBusy += rw.busy
	l.writerClose += closeWall
	l.traceWrite += sink.busy
	l.storeWrite += sink.busy
	l.storeCommit += commitWall
	l.traceBytes += sink.bytes
	l.bytesWritten += sink.bytes
	l.traceEvents += tw.Events()
	return a, nil
}

// timedPut is store.PutBytes spelled out as its public calls, so the
// write and the commit are timed apart.
func timedPut(rec *recorder, parent int, req string, st *store.Store, key string, data []byte, l *coldLayers) error {
	id := rec.start(parent, "store.put", req)
	defer rec.end(id)
	ew, err := st.Create(key)
	if err != nil {
		return err
	}
	w := &timedWriter{inner: ew}
	if _, err := w.Write(data); err != nil {
		ew.Abort()
		return err
	}
	start := time.Now()
	err = ew.Commit()
	l.storeCommit += time.Since(start)
	l.storeWrite += w.busy
	l.bytesWritten += w.bytes
	return err
}

// tracedColdPass repeats the cold path with every layer timed, into a
// fresh store of its own. Its profiles must match the untraced pass
// byte for byte, and a runner session over its store must serve every
// program as a snapshot.
func (e *env) tracedColdPass(ctx context.Context, rec *recorder) (coldLayers, time.Duration, error) {
	dir, st, err := e.newStore()
	if err != nil {
		return coldLayers{}, 0, err
	}
	defer os.RemoveAll(dir)
	defer st.Close()
	progs := bio.All()
	analyses := make([]*loadchar.Analysis, len(progs))
	layers := make([]coldLayers, len(progs))
	start := time.Now()
	err = runner.NewSession(workers).ForEach(ctx, len(progs), func(i int) error {
		a, err := e.tracedColdProgram(ctx, rec, st, progs[i], &layers[i])
		analyses[i] = a
		return err
	})
	wall := time.Since(start)
	e.count(len(progs), err)
	if err != nil {
		return coldLayers{}, 0, fmt.Errorf("traced cold characterize: %w", err)
	}
	var total coldLayers
	for i, p := range progs {
		total.add(layers[i])
		if render(p.Name, e.size, analyses[i]) != e.coldRef[p.Name] {
			e.checks.fail("traced cold: %s profile differs from the untraced run", p.Name)
		}
	}
	sess := runner.NewSessionWithStore(workers, st)
	for _, p := range progs {
		prof, err := sess.Characterize(ctx, p, e.size)
		switch {
		case err != nil:
			e.checks.fail("traced cold: re-serving %s: %v", p.Name, err)
		case prof.Source != "snapshot":
			e.checks.fail("traced cold: the runner served %s from %q, not the traced store's snapshot", p.Name, prof.Source)
		}
	}
	return total, wall, nil
}

// isolation times hmmsearch four ways, one run each: the simulator
// alone, with the live analysis, recording a v4 trace, and replaying
// the analysis from that trace. It is the layer split of the cold path.
func (e *env) isolation(ctx context.Context, rec *recorder) (map[string]time.Duration, error) {
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		return nil, err
	}
	prog, err := p.Compile(false, compiler.Default())
	if err != nil {
		return nil, err
	}
	prog.Symbol("")
	fp := runner.Fingerprint(p, false, compiler.Default())
	out := make(map[string]time.Duration)
	simulate := func(name string, attach func(m *sim.Machine)) error {
		m, err := sim.New(prog)
		if err != nil {
			return err
		}
		if err := p.Bind(m, e.size); err != nil {
			return err
		}
		attach(m)
		id := rec.start(0, name, "isolation/hmmsearch")
		start := time.Now()
		res, err := m.RunContext(ctx)
		out[name] = time.Since(start)
		rec.end(id)
		e.count(1, err)
		if err != nil {
			return err
		}
		return p.Validate(res, e.size)
	}
	if err := simulate("isolation.sim", func(*sim.Machine) {}); err != nil {
		return nil, err
	}
	if err := simulate("isolation.sim_live", func(m *sim.Machine) { m.AddBatchObserver(loadchar.New(prog)) }); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf, trace.Meta{Program: p.Name, Fingerprint: fp, Size: e.size.String()}, prog)
	if err := simulate("isolation.sim_record", func(m *sim.Machine) { m.AddBatchObserver(tw) }); err != nil {
		return nil, err
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	ir, err := trace.NewIndexedReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		return nil, err
	}
	id := rec.start(0, "isolation.replay", "isolation/hmmsearch")
	start := time.Now()
	a, err := runner.ReplayAnalyze(ctx, prog, ir, workers)
	out["isolation.replay"] = time.Since(start)
	rec.end(id)
	e.count(1, err)
	if err != nil {
		return nil, err
	}
	if render(p.Name, e.size, a) != e.coldRef[p.Name] {
		e.checks.fail("isolation: replayed hmmsearch profile differs from the cold one")
	}
	return out, nil
}

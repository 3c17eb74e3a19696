package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"bioperfload/internal/bio"
	"bioperfload/internal/compiler"
	"bioperfload/internal/runner"
	"bioperfload/internal/service"
	"bioperfload/internal/simpoint"
	"bioperfload/internal/store"
	"bioperfload/internal/trace"
)

// warmRun is one pass of the warm paths over a filled store.
type warmRun struct {
	serveWall   time.Duration
	replayWall  time.Duration
	sampledWall time.Duration

	snapshotMS, cachedMS      []float64 // client latency per tier
	queueWaitMS, execMS       []float64 // from the job's timestamps
	httpMS                    []float64 // client latency minus job lifetime
	rejected                  int
	sess                      runner.Stats // summed over the rounds' sessions
	storeBefore, storeAfter   store.Stats
	serialFallbacks           int
	intervals, clusters       int
	replayedEvents, allEvents uint64
	maxErrPP                  float64

	// Traced-only figures.
	openWall, decodeWall, analyzeWall, collectWall, planWall, getWall time.Duration
	decodedEvents                                                     uint64
}

// jobDoc is the part of the job document the checks read.
type jobDoc struct {
	Status     string     `json:"status"`
	Error      string     `json:"error"`
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at"`
	FinishedAt *time.Time `json:"finished_at"`
	Result     struct {
		Source string `json:"source"`
		Report string `json:"report"`
	} `json:"result"`
}

// warmPass serves the filled store every way a daemon answers without
// simulating: the snapshot and cached tiers over the HTTP API, then
// replay and sampled analysis of each stored trace.
func (e *env) warmPass(ctx context.Context, c *coldRun, rec *recorder) (*warmRun, error) {
	w := &warmRun{storeBefore: c.st.Stats()}
	start := time.Now()
	for r := 0; r < serveRounds; r++ {
		if err := e.serveRound(ctx, c, r, rec, w); err != nil {
			return nil, err
		}
	}
	w.serveWall = time.Since(start)
	w.storeAfter = c.st.Stats()
	if w.sess.ColdChars != 0 {
		e.checks.fail("warm: %d cold characterizations while serving a filled store, want 0", w.sess.ColdChars)
	}
	if rec != nil {
		if err := e.tracedStoreGets(rec, c.st, w); err != nil {
			return nil, err
		}
	}

	// The replay and sampled times cover only the calls a daemon makes
	// to serve them, so the traced run's extra stages stay out.
	progs := e.order(bio.All())
	readers := make(map[string]*trace.IndexedReader, len(progs))
	for _, p := range progs {
		start := time.Now()
		ir, closer, err := e.openTrace(rec, c.st, p, w)
		e.count(1, err)
		if err != nil {
			return nil, err
		}
		defer closer()
		readers[p.Name] = ir
		id := rec.start(0, "runner.replay_analyze", "replay/"+p.Name)
		t0 := time.Now()
		a, err := runner.ReplayAnalyze(ctx, e.progs[p.Name], ir, workers)
		w.analyzeWall += time.Since(t0)
		w.replayWall += time.Since(start)
		rec.end(id)
		e.count(1, err)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", p.Name, err)
		}
		if workers > 1 && !a.Exec.Parallel() {
			w.serialFallbacks++
		}
		if render(p.Name, e.size, a) != c.renders[p.Name] {
			e.checks.fail("replay: %s profile differs from the cold one", p.Name)
		}
	}

	if rec != nil {
		for _, p := range progs {
			if err := e.tracedDecode(ctx, rec, p, readers[p.Name], w); err != nil {
				return nil, err
			}
		}
	}

	exact := make(map[string]*runner.Profile, len(c.profiles))
	for _, p := range c.profiles {
		exact[p.Name] = p
	}
	for _, p := range progs {
		ir := readers[p.Name]
		prog := e.progs[p.Name]
		if rec != nil {
			if err := e.tracedPlan(ctx, rec, p, ir, w); err != nil {
				return nil, err
			}
		}
		id := rec.start(0, "runner.sampled_analyze", "sampled/"+p.Name)
		start := time.Now()
		a, plan, err := runner.SampledAnalyze(ctx, prog, ir, e.sp, workers)
		w.sampledWall += time.Since(start)
		rec.end(id)
		var degrade *simpoint.DegradeError
		if errors.As(err, &degrade) && e.size == bio.SizeTest {
			// Test-size traces may be too short to sample; classB never is.
			e.count(1, nil)
			continue
		}
		e.count(1, err)
		if err != nil {
			return nil, fmt.Errorf("sampled %s: %w", p.Name, err)
		}
		diffs, maxErr := simpoint.ProfileError(exact[p.Name].Analysis, a)
		tol, ok := e.tolerance(p.Name)
		if !ok || maxErr > tol {
			e.checks.fail("sampled: %s error %.2f pp exceeds its %.2f pp tolerance: %v", p.Name, maxErr, tol, diffs)
		}
		w.maxErrPP = max(w.maxErrPP, maxErr)
		w.intervals += len(plan.Intervals)
		w.clusters += len(plan.Clusters)
		for _, cl := range plan.Clusters {
			w.replayedEvents += cl.End - cl.Start + min(cl.Start, plan.Config.WarmupEvents)
		}
		w.allEvents += ir.TotalEvents()
	}
	return w, nil
}

// serveRound starts a new server over the filled store and sends it
// every program twice from two closed-loop clients, in an order drawn
// from the seed. A program's first request is a snapshot serve; its
// repeat waits until the first has answered and is a cached serve.
func (e *env) serveRound(ctx context.Context, c *coldRun, round int, rec *recorder, w *warmRun) error {
	progs := bio.All()
	sess := runner.NewSessionWithStore(workers, c.st)
	srv := service.New(service.Config{Session: sess, Workers: workers})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Shutdown(ctx)
	}()
	client := ts.Client()

	order := make([]int, 2*len(progs))
	for i := range order {
		order[i] = i % len(progs)
	}
	e.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	first := make([]bool, len(order))
	seen := make([]bool, len(progs))
	for k, pi := range order {
		first[k] = !seen[pi]
		seen[pi] = true
	}
	answered := make([]chan struct{}, len(progs))
	for i := range answered {
		answered[i] = make(chan struct{})
	}

	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	const clients = 2
	wg.Add(clients)
	for cl := 0; cl < clients; cl++ {
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(order) {
					return
				}
				p := progs[order[k]]
				if !first[k] {
					<-answered[order[k]]
				}
				req := fmt.Sprintf("serve/r%d/%d", round, k)
				id := rec.start(0, "http.request", req)
				lat, doc, code, err := postCharacterize(ctx, client, ts.URL, p.Name, e.size)
				rec.end(id)
				if first[k] {
					close(answered[order[k]])
				}
				mu.Lock()
				e.recordServe(rec, id, req, p.Name, first[k], c, lat, doc, code, err, w)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st := sess.Stats()
	if st.ProfileHits != uint64(len(progs)) || st.CharacterizeHits != uint64(len(order)-len(progs)) {
		e.checks.fail("serve: round %d had %d snapshot loads and %d memo hits, want %d and %d",
			round, st.ProfileHits, st.CharacterizeHits, len(progs), len(order)-len(progs))
	}
	w.sess.ColdChars += st.ColdChars
	w.sess.ProfileHits += st.ProfileHits
	w.sess.CharacterizeHits += st.CharacterizeHits
	w.sess.ReplayRuns += st.ReplayRuns
	return nil
}

func postCharacterize(ctx context.Context, client *http.Client, url, program string, sz bio.Size) (time.Duration, *jobDoc, int, error) {
	body, err := json.Marshal(service.CharacterizeRequest{Program: program, Size: sz.String(), Wait: true})
	if err != nil {
		return 0, nil, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/characterize", bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return lat, nil, resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return lat, nil, resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var doc jobDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return lat, nil, resp.StatusCode, fmt.Errorf("decode job: %w", err)
	}
	return lat, &doc, resp.StatusCode, nil
}

// recordServe checks one served request and files its latency under
// its tier. The caller holds the lock guarding w.
func (e *env) recordServe(rec *recorder, id int, req, program string, first bool, c *coldRun, lat time.Duration, doc *jobDoc, code int, err error, w *warmRun) {
	if code == http.StatusTooManyRequests {
		w.rejected++
	}
	if err == nil && (doc.Status != "done" || doc.StartedAt == nil || doc.FinishedAt == nil) {
		err = fmt.Errorf("job %s: %s", doc.Status, doc.Error)
	}
	e.count(1, err)
	if err != nil {
		e.checks.fail("serve %s: %v", program, err)
		return
	}
	if doc.Result.Source != "snapshot" {
		e.checks.fail("serve %s: source %q, want snapshot", program, doc.Result.Source)
	}
	if doc.Result.Report != c.renders[program] {
		e.checks.fail("serve %s: served profile differs from the cold one", program)
	}
	ms := float64(lat) / 1e6
	if first {
		w.snapshotMS = append(w.snapshotMS, ms)
	} else {
		w.cachedMS = append(w.cachedMS, ms)
	}
	wait := doc.StartedAt.Sub(doc.CreatedAt)
	exec := doc.FinishedAt.Sub(*doc.StartedAt)
	w.queueWaitMS = append(w.queueWaitMS, float64(wait)/1e6)
	w.execMS = append(w.execMS, float64(exec)/1e6)
	w.httpMS = append(w.httpMS, float64(lat-doc.FinishedAt.Sub(doc.CreatedAt))/1e6)
	rec.add(id, "service.queue_wait", req, doc.CreatedAt, wait)
	rec.add(id, "service.exec", req, *doc.StartedAt, exec)
}

// openTrace opens a program's stored v4 trace as the warm paths read
// it: the store's object file through its chunk index.
func (e *env) openTrace(rec *recorder, st *store.Store, p *bio.Program, w *warmRun) (*trace.IndexedReader, func(), error) {
	fp := runner.Fingerprint(p, false, compiler.Default())
	id := rec.start(0, "trace.open", "replay/"+p.Name)
	defer rec.end(id)
	start := time.Now()
	defer func() { w.openWall += time.Since(start) }()
	rc, size, ok := st.OpenReader(traceKey(fp, e.size))
	if !ok {
		return nil, nil, fmt.Errorf("%s: no stored trace", p.Name)
	}
	ra, ok := rc.(io.ReaderAt)
	if !ok {
		rc.Close()
		return nil, nil, fmt.Errorf("%s: stored trace is not seekable", p.Name)
	}
	ir, err := trace.NewIndexedReader(ra, size)
	if err != nil {
		rc.Close()
		return nil, nil, fmt.Errorf("%s: open trace: %w", p.Name, err)
	}
	return ir, func() { rc.Close() }, nil
}

// tracedDecode times a decode-only pass over a trace: the column
// source replay reads from, drained without analysis.
func (e *env) tracedDecode(ctx context.Context, rec *recorder, p *bio.Program, ir *trace.IndexedReader, w *warmRun) error {
	id := rec.start(0, "trace.decode", "replay/"+p.Name)
	defer rec.end(id)
	start := time.Now()
	src := ir.Columns(ctx, e.progs[p.Name], 0, ir.Chunks(), workers)
	defer src.Close()
	for {
		ch, release, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("decode %s: %w", p.Name, err)
		}
		w.decodedEvents += uint64(ch.N)
		release()
	}
	w.decodeWall += time.Since(start)
	return nil
}

// tracedPlan times the two sampling stages SampledAnalyze starts with.
func (e *env) tracedPlan(ctx context.Context, rec *recorder, p *bio.Program, ir *trace.IndexedReader, w *warmRun) error {
	req := "sampled/" + p.Name
	id := rec.start(0, "simpoint.collect", req)
	start := time.Now()
	intervals, err := simpoint.CollectTrace(ctx, e.progs[p.Name], ir, e.sp, workers)
	w.collectWall += time.Since(start)
	rec.end(id)
	if err != nil {
		return fmt.Errorf("collect %s: %w", p.Name, err)
	}
	id = rec.start(0, "simpoint.plan", req)
	start = time.Now()
	_, err = simpoint.BuildPlan(intervals, e.sp)
	w.planWall += time.Since(start)
	rec.end(id)
	var degrade *simpoint.DegradeError
	if errors.As(err, &degrade) && e.size == bio.SizeTest {
		return nil
	}
	return err
}

// tracedStoreGets times the store reads a snapshot serve makes: the
// profile snapshot and the compiled program of each program.
func (e *env) tracedStoreGets(rec *recorder, st *store.Store, w *warmRun) error {
	for _, p := range bio.All() {
		fp := runner.Fingerprint(p, false, compiler.Default())
		id := rec.start(0, "store.get", "get/"+p.Name)
		start := time.Now()
		_, ok1 := st.GetBytes(profKey(fp, e.size))
		_, ok2 := st.GetBytes(progKey(fp))
		w.getWall += time.Since(start)
		rec.end(id)
		if !ok1 || !ok2 {
			return fmt.Errorf("store: %s snapshot or binary missing", p.Name)
		}
	}
	return nil
}

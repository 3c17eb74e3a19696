package main

import (
	"time"

	"bioperfload/internal/loadchar"
)

// layerDef is one per-layer metric: its unit and, for each workload
// whose traced run does not measure it, the reason.
type layerDef struct {
	name, unit string
	absentFrom map[string]string
}

const (
	noSim      = "this workload's traced path does not simulate"
	noCold     = "measured on cold-characterize: only the cold path runs the live analysis and writes traces"
	noWarm     = "measured on warm-serve: only the warm paths read traces and serve requests"
	noTiming   = "measured on table8-timing: only the timing path runs the timing models"
	noIsolate  = "the hmmsearch layer split is part of the cold-characterize traced run"
	sameAsCold = "the warm paths serve the cold-characterize profiles; their counts are reported there"
)

// absentOn maps each of the given workloads to why.
func absentOn(why string, wls ...string) map[string]string {
	out := make(map[string]string, len(wls))
	for _, w := range wls {
		out[w] = why
	}
	return out
}

// perLayer lists every per-layer metric the traced runs report.
var perLayer = []layerDef{
	{"compiler.compile_s", "s", absentOn(noSim, wlWarm)},
	{"compiler.compiles", "count", absentOn(noSim, wlWarm)},
	{"sim.self_s", "s", absentOn(noSim, wlWarm)},
	{"sim.instructions", "count", absentOn(noSim, wlWarm)},
	{"sim.minst_per_s", "Minst/s", absentOn(noSim, wlWarm)},
	{"loadchar.live_busy_s", "s", absentOn(noCold, wlWarm, wlTable8)},
	{"loadchar.live_ns_per_event", "ns", absentOn(noCold, wlWarm, wlTable8)},
	{"trace.encode_busy_s", "s", absentOn(noCold, wlWarm, wlTable8)},
	{"trace.bytes", "bytes", absentOn(noCold, wlWarm, wlTable8)},
	{"trace.bits_per_event", "bits", absentOn(noCold, wlWarm, wlTable8)},
	{"trace.open_s", "s", absentOn(noWarm, wlCold, wlTable8)},
	{"trace.decode_s", "s", absentOn(noWarm, wlCold, wlTable8)},
	{"trace.decode_ns_per_event", "ns", absentOn(noWarm, wlCold, wlTable8)},
	{"runner.replay_analyze_s", "s", absentOn(noWarm, wlCold, wlTable8)},
	{"runner.replay_serial_fallbacks", "count", absentOn(noWarm, wlCold, wlTable8)},
	{"runner.cold_chars", "count", absentOn(noWarm, wlCold, wlTable8)},
	{"runner.profile_hits", "count", absentOn(noWarm, wlCold, wlTable8)},
	{"runner.char_hits", "count", absentOn(noWarm, wlCold, wlTable8)},
	{"simpoint.collect_s", "s", absentOn(noWarm, wlCold, wlTable8)},
	{"simpoint.plan_s", "s", absentOn(noWarm, wlCold, wlTable8)},
	{"simpoint.intervals", "count", absentOn(noWarm, wlCold, wlTable8)},
	{"simpoint.clusters", "count", absentOn(noWarm, wlCold, wlTable8)},
	{"simpoint.replayed_event_fraction", "ratio", absentOn(noWarm, wlCold, wlTable8)},
	{"simpoint.max_error_pp", "pp", absentOn(noWarm, wlCold, wlTable8)},
	{"store.write_s", "s", absentOn(noCold, wlWarm, wlTable8)},
	{"store.commit_s", "s", absentOn(noCold, wlWarm, wlTable8)},
	{"store.bytes_written", "bytes", absentOn(noCold, wlWarm, wlTable8)},
	{"store.get_s", "s", absentOn(noWarm, wlCold, wlTable8)},
	{"store.hits", "count", absentOn(noWarm, wlCold, wlTable8)},
	{"store.misses", "count", absentOn(noWarm, wlCold, wlTable8)},
	{"service.queue_wait_p50_ms", "ms", absentOn(noWarm, wlCold, wlTable8)},
	{"service.exec_p50_ms", "ms", absentOn(noWarm, wlCold, wlTable8)},
	{"service.http_p50_ms", "ms", absentOn(noWarm, wlCold, wlTable8)},
	{"service.rejected", "count", absentOn(noWarm, wlCold, wlTable8)},
	{"pipeline.busy_s", "s", absentOn(noTiming, wlCold, wlWarm)},
	{"pipeline.ns_per_event", "ns", absentOn(noTiming, wlCold, wlWarm)},
	{"pipeline.cycles", "count", absentOn(noTiming, wlCold, wlWarm)},
	{"scoreboard.busy_s", "s", absentOn(noTiming, wlCold, wlWarm)},
	{"scoreboard.observed_fraction", "ratio", absentOn(noTiming, wlCold, wlWarm)},
	{"cache.l1_accesses", "count", absentOn(sameAsCold, wlWarm)},
	{"cache.l1_misses", "count", absentOn(sameAsCold, wlWarm)},
	{"cache.l2_misses", "count", absentOn(sameAsCold, wlWarm)},
	{"bpred.cond_branches", "count", absentOn(sameAsCold, wlWarm)},
	{"bpred.mispredicts", "count", absentOn(sameAsCold, wlWarm)},
	{"isolation.hmmsearch_sim_ms", "ms", absentOn(noIsolate, wlWarm, wlTable8)},
	{"isolation.hmmsearch_sim_live_ms", "ms", absentOn(noIsolate, wlWarm, wlTable8)},
	{"isolation.hmmsearch_sim_record_ms", "ms", absentOn(noIsolate, wlWarm, wlTable8)},
	{"isolation.hmmsearch_replay_ms", "ms", absentOn(noIsolate, wlWarm, wlTable8)},
	{"trace.overhead_pct", "%", nil},
	{"table8.stale_cells", "count", nil},
}

func secs(d time.Duration) float64 { return d.Seconds() }

// perEvent returns d per event in nanoseconds.
func perEvent(d time.Duration, events uint64) float64 {
	if events == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(events)
}

func (e *env) simMetrics(m metrics, compile spanTotal, compiles int, runWall, observerBusy time.Duration, instructions uint64) {
	m.value("compiler.compile_s", "s", secs(compile.Dur))
	m.value("compiler.compiles", "count", float64(compiles))
	self := runWall - observerBusy
	m.value("sim.self_s", "s", secs(self))
	m.value("sim.instructions", "count", float64(instructions))
	m.value("sim.minst_per_s", "Minst/s", float64(instructions)/self.Seconds()/1e6)
}

func (e *env) coldLayerMetrics(m metrics, c *coldRun, l coldLayers, spans map[string]spanTotal) {
	e.simMetrics(m, spans["compiler.compile"], l.compiles, l.runWall, l.liveBusy+l.writerBusy, l.instructions)
	m.value("loadchar.live_busy_s", "s", secs(l.liveBusy))
	m.value("loadchar.live_ns_per_event", "ns", perEvent(l.liveBusy, l.instructions))
	m.value("trace.encode_busy_s", "s", secs(l.writerBusy+l.writerClose-l.traceWrite))
	m.value("trace.bytes", "bytes", float64(l.traceBytes))
	m.value("trace.bits_per_event", "bits", 8*float64(l.traceBytes)/float64(l.traceEvents))
	m.value("store.write_s", "s", secs(l.storeWrite))
	m.value("store.commit_s", "s", secs(l.storeCommit))
	m.value("store.bytes_written", "bytes", float64(l.bytesWritten))
	st := c.stats
	m.value("runner.cold_chars", "count", float64(st.ColdChars))
	m.value("runner.profile_hits", "count", float64(st.ProfileHits))
	m.value("runner.char_hits", "count", float64(st.CharacterizeHits))
	m.value("runner.replay_serial_fallbacks", "count", float64(st.ReplaySerialFallbacks))
	var snaps []*loadchar.Snapshot
	for _, p := range c.profiles {
		snaps = append(snaps, p.Analysis.Snapshot())
	}
	var l1a, l1m, l2m, br, mis uint64
	for _, s := range snaps {
		l1a += s.L1Stats.Accesses
		l1m += s.L1Stats.Misses()
		l2m += s.L2Stats.Misses()
		br += s.BranchTotal.Executed
		mis += s.BranchTotal.Mispredicts
	}
	e.modelCounts(m, l1a, l1m, l2m, br, mis)
}

func (e *env) isolationMetrics(m metrics, iso map[string]time.Duration) {
	m.value("isolation.hmmsearch_sim_ms", "ms", ms(iso["isolation.sim"]))
	m.value("isolation.hmmsearch_sim_live_ms", "ms", ms(iso["isolation.sim_live"]))
	m.value("isolation.hmmsearch_sim_record_ms", "ms", ms(iso["isolation.sim_record"]))
	m.value("isolation.hmmsearch_replay_ms", "ms", ms(iso["isolation.replay"]))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (e *env) modelCounts(m metrics, l1a, l1m, l2m, br, mis uint64) {
	m.value("cache.l1_accesses", "count", float64(l1a))
	m.value("cache.l1_misses", "count", float64(l1m))
	m.value("cache.l2_misses", "count", float64(l2m))
	m.value("bpred.cond_branches", "count", float64(br))
	m.value("bpred.mispredicts", "count", float64(mis))
}

func (e *env) warmLayerMetrics(m metrics, w *warmRun) {
	m.value("trace.open_s", "s", secs(w.openWall))
	m.value("trace.decode_s", "s", secs(w.decodeWall))
	m.value("trace.decode_ns_per_event", "ns", perEvent(w.decodeWall, w.decodedEvents))
	m.value("runner.replay_analyze_s", "s", secs(w.analyzeWall))
	m.value("runner.replay_serial_fallbacks", "count", float64(w.serialFallbacks))
	m.value("runner.cold_chars", "count", float64(w.sess.ColdChars))
	m.value("runner.profile_hits", "count", float64(w.sess.ProfileHits))
	m.value("runner.char_hits", "count", float64(w.sess.CharacterizeHits))
	m.value("simpoint.collect_s", "s", secs(w.collectWall))
	m.value("simpoint.plan_s", "s", secs(w.planWall))
	m.value("simpoint.intervals", "count", float64(w.intervals))
	m.value("simpoint.clusters", "count", float64(w.clusters))
	if w.allEvents > 0 {
		m.value("simpoint.replayed_event_fraction", "ratio", float64(w.replayedEvents)/float64(w.allEvents))
	}
	m.value("simpoint.max_error_pp", "pp", w.maxErrPP)
	m.value("store.get_s", "s", secs(w.getWall))
	m.value("store.hits", "count", float64(w.storeAfter.Hits-w.storeBefore.Hits))
	m.value("store.misses", "count", float64(w.storeAfter.Misses-w.storeBefore.Misses))
	m.median("service.queue_wait_p50_ms", "ms", w.queueWaitMS)
	m.median("service.exec_p50_ms", "ms", w.execMS)
	m.median("service.http_p50_ms", "ms", w.httpMS)
	m.value("service.rejected", "count", float64(w.rejected))
}

func (e *env) table8LayerMetrics(m metrics, l t8Layers, spans map[string]spanTotal) {
	e.simMetrics(m, spans["compiler.compile"], l.compiles, l.runWall, l.pipelineBusy+l.boardBusy, l.instructions)
	m.value("pipeline.busy_s", "s", secs(l.pipelineBusy))
	m.value("pipeline.ns_per_event", "ns", perEvent(l.pipelineBusy, l.pipelineEvents))
	m.value("pipeline.cycles", "count", float64(l.pipelineCycles))
	m.value("scoreboard.busy_s", "s", secs(l.boardBusy))
	m.value("scoreboard.observed_fraction", "ratio", float64(l.boardEvents)/float64(l.boardInsts))
	e.modelCounts(m, l.l1Accesses, l.l1Misses, l.l2Misses, l.condBranches, l.mispredicts)
}

package main

// layerSpec is one per-layer metric of the traced run.
type layerSpec struct {
	name string
	unit string
	kind int
	key  string // span name, sample key or count name; layer name for shares
}

const (
	perRound = iota // span time summed over a round (or a set-up when no round has the span), median over rounds, ms
	perCall         // median span duration, ms
	sampled         // median of a sample series
	counted         // count of the last round
	share           // layer self time as a share of all self time in traced rounds, %
)

// engineHosts are the spans whose self time may include fault-engine
// work that the program does not time on its own: ATPG outside its
// PODEM search (random phase, drop-mode block simulation, dynamic
// compaction), compaction (baseline grade and replay passes) and the
// advisor's probes. Their self time plus the fault layer's bounds the
// engine's share from above.
var engineHosts = map[string]bool{"atpg.generate": true, "compact.result": true, "advise.probe": true}

// layerSpecs lists the per-layer metrics in the order BENCHMARK.json
// names them. A workload that never calls into a layer reports 0 for
// that layer's metrics.
var layerSpecs = []layerSpec{
	{"core.load_ms", "ms", perRound, "core.load"},
	{"core.nets", "count", counted, "core.nets"},
	{"fault.collapse_ms", "ms", perRound, "fault.collapse"},
	{"fault.collapse_ratio", "ratio", counted, "fault.collapse_ratio"},
	{"sim.compile_ms", "ms", perRound, "sim.compile"},
	{"sim.instrs", "count", counted, "sim.instrs"},
	{"sim.folded", "count", counted, "sim.folded"},
	{"fault.grade_ms", "ms", perRound, "fault.grade"},
	{"fault.detail_ms", "ms", sampled, "fault.detail_ms"},
	{"fault.detail_fault_pats_per_us", "1/us", sampled, "fault.detail_fault_pats_per_us"},
	{"fault.detected", "count", counted, "fault.detected"},
	{"atpg.generate_ms", "ms", perRound, "atpg.generate"},
	{"atpg.patterns", "count", counted, "atpg.patterns"},
	{"atpg.untestable", "count", counted, "atpg.untestable"},
	{"atpg.aborted", "count", counted, "atpg.aborted"},
	{"atpg.detect_ratio", "ratio", counted, "atpg.detect_ratio"},
	{"compact.result_ms", "ms", perRound, "compact.result"},
	{"compact.ratio", "ratio", counted, "compact.ratio"},
	{"compact.replay_passes", "count", counted, "compact.replay_passes"},
	{"lssd.apply_scan_ms", "ms", perRound, "lssd.apply_scan"},
	{"lssd.chain_length", "count", counted, "lssd.chain_length"},
	{"testability.scoap_ms", "ms", perRound, "testability.scoap"},
	{"advise.run_ms", "ms", perRound, "advise.run"},
	{"advise.steps", "count", counted, "advise.steps"},
	{"advise.overhead_gates", "count", counted, "advise.overhead_gates"},
	{"diagnose.build_ms", "ms", perRound, "diagnose.build"},
	{"diagnose.codec_ms", "ms", perRound, "diagnose.codec"},
	{"diagnose.rank_ms", "ms", perCall, "diagnose.rank"},
	{"diagnose.dict_bytes", "bytes", counted, "diagnose.dict_bytes"},
	{"diagnose.class_size", "count", sampled, "diagnose.class_size"},
	{"service.post_ms", "ms", sampled, "service.post_ms"},
	{"service.queue_wait_ms", "ms", sampled, "service.queue_wait_ms"},
	{"service.run_ms", "ms", sampled, "service.run_ms"},
	{"service.stream_ms", "ms", sampled, "service.stream_ms"},
	{"service.fetch_ms", "ms", sampled, "service.fetch_ms"},
	{"service.cache_hit_ratio", "ratio", sampled, "service.cache_hit_ratio"},
	{"service.coalesced_ratio", "ratio", sampled, "service.coalesced_ratio"},
	{"service.report_bytes", "bytes", sampled, "service.report_bytes"},
	{"share.core_pct", "%", share, "core"},
	{"share.testability_pct", "%", share, "testability"},
	{"share.lssd_pct", "%", share, "lssd"},
	{"share.fault_pct", "%", share, "fault"},
	{"share.sim_pct", "%", share, "sim"},
	{"share.atpg_pct", "%", share, "atpg"},
	{"share.compact_pct", "%", share, "compact"},
	{"share.advise_pct", "%", share, "advise"},
	{"share.diagnose_pct", "%", share, "diagnose"},
	{"share.service_pct", "%", share, "service"},
	{"share.bench_pct", "%", share, "bench"},
	{"share.engine_bound_pct", "%", share, engineBound},
}

// engineBound is the share key of the upper bound on the fault
// engine's share: the fault layer's self time plus the engine hosts'.
const engineBound = "engine_bound"

// layerMetrics assembles the per-layer metrics of a traced run from
// its spans, the traced and untraced rounds' samples, the untraced
// rounds' garbage-collector activity, the workload's counts and the
// oracle tally.
func layerMetrics(spans []span, traced, plain *samples, gcs []memDelta, counts map[string]float64, chk *checks) map[string]metric {
	root := roots(spans)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	// Per-root sums of each span name, split by root kind.
	sums := map[string]map[int]float64{} // span name -> root ID -> ms
	for _, s := range spans {
		if sums[s.Name] == nil {
			sums[s.Name] = map[int]float64{}
		}
		sums[s.Name][root[s.ID]] += float64(s.dur()) / 1e6
	}
	self := selfTimes(spans)
	layerSelf := map[string]int64{}
	var total int64
	for _, s := range spans {
		if byID[root[s.ID]].Name != "bench.round" {
			continue
		}
		layerSelf[s.layer()] += self[s.ID]
		if s.layer() == "fault" || engineHosts[s.Name] {
			layerSelf[engineBound] += self[s.ID]
		}
		total += self[s.ID]
	}

	m := make(map[string]metric, len(layerSpecs)+5)
	for _, sp := range layerSpecs {
		var v float64
		switch sp.kind {
		case perRound:
			var rounds, setups []float64
			for id, ms := range sums[sp.key] {
				if byID[id].Name == "bench.round" {
					rounds = append(rounds, ms)
				} else {
					setups = append(setups, ms)
				}
			}
			switch {
			case len(rounds) > 0:
				v = median(rounds)
			case len(setups) > 0:
				v = median(setups)
			}
		case perCall:
			var calls []float64
			for _, s := range spans {
				if s.Name == sp.key {
					calls = append(calls, float64(s.dur())/1e6)
				}
			}
			if len(calls) > 0 {
				v = median(calls)
			}
		case sampled:
			if xs := append(append([]float64(nil), traced.get(sp.key)...), plain.get(sp.key)...); len(xs) > 0 {
				v = median(xs)
			}
		case counted:
			v = counts[sp.key]
		case share:
			if total > 0 {
				v = 100 * float64(layerSelf[sp.key]) / float64(total)
			}
		}
		m[sp.name] = metric{v, sp.unit}
	}

	var cycles, pauses, alloc []float64
	for _, g := range gcs {
		cycles = append(cycles, float64(g.gcCycles))
		pauses = append(pauses, float64(g.pauseNs)/1e6)
		alloc = append(alloc, float64(g.alloc)/(1<<20))
	}
	m["runtime.gc_cycles"] = metric{medianOr0(cycles), "count"}
	m["runtime.gc_pause_ms"] = metric{medianOr0(pauses), "ms"}
	m["runtime.alloc_mb"] = metric{medianOr0(alloc), "MB"}

	overhead := 0.0
	if on, off := medianOr0(traced.get("pass")), medianOr0(plain.get("pass")); on > 0 && off > 0 {
		overhead = 100 * (on - off) / off
	}
	m["trace.overhead_pct"] = metric{overhead, "%"}
	failed := 0.0
	if chk.attempted > 0 {
		failed = 100 * float64(chk.failed) / float64(chk.attempted)
	}
	m["failed_pct"] = metric{failed, "%"}
	return m
}

// medianOr0 is the median of xs, or 0 when xs is empty.
func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

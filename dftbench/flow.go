package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"dft/internal/advise"
	"dft/internal/atpg"
	"dft/internal/circuits"
	"dft/internal/compact"
	"dft/internal/core"
	"dft/internal/fault"
	"dft/internal/logic"
	"dft/internal/telemetry"
)

// flowCorpus is the designer's netlist set. alu74181x(4) is the
// abort-bearing PODEM case; the sequential designs take the LSSD
// full-scan path.
var flowCorpus = []netlist{
	{"alu74181", 0},
	{"alu74181x", 4},
	{"mult", 6},
	{"mult", 8},
	{"adder", 32},
	{"parity", 64},
	{"counter", 16},
	{"hardcore", 16},
}

// netlist names a builtin circuit by generator and size.
type netlist struct {
	gen string
	n   int
}

// adviseSizes are the hardcore sizes the advise pass runs on.
var adviseSizes = []int{12, 24}

const (
	flowAdvisePasses = 3  // advise passes per round: a pass is short, so several give the median enough samples
	flowRandomFirst  = 32 // random patterns before deterministic ATPG
	// flowToolSeed is the ATPG, X-fill and advisor seed, the CLI
	// default. It is part of the corpus, not drawn from --seed, so
	// every run generates the same test sets: the seed orders the
	// netlists within each pass.
	flowToolSeed = 1
)

// flowOutcome is what one design's flow produced.
type flowOutcome struct {
	patterns   [][]bool
	detected   int
	targets    int
	generated  int
	untestable int
	aborted    int
	stats      *compact.Stats
	chain      int
	report     core.Report
	view       atpg.View
	circuit    *logic.Circuit
	faults     []fault.Fault
}

// flowWorkload is the designer's path: each netlist runs from .bench
// text through parse and lint, SCOAP, LSSD scan insertion for
// sequential designs, collapse, ATPG with full compaction and the
// flow report; the advisor then runs on hardcore at two sizes. Each
// stage call of a pass is one operation sample.
type flowWorkload struct {
	seed    int64
	order   *rng // orders the netlists within each pass
	reg     *telemetry.Registry
	names   []string
	srcs    []string
	advised []*logic.Circuit

	warm  []flowOutcome
	last  []flowOutcome
	plans []*advise.Plan
}

func (w *flowWorkload) setup(ctx context.Context, tr *tracer, parent int) error {
	w.reg = telemetry.NewRegistry()
	w.order = newRNG(w.seed, 11)
	for _, spec := range flowCorpus {
		c, err := circuits.Builtin(spec.gen, spec.n)
		if err != nil {
			return err
		}
		w.names = append(w.names, fmt.Sprintf("%s(%d)", spec.gen, spec.n))
		w.srcs = append(w.srcs, logic.BenchString(c))
	}
	for _, n := range adviseSizes {
		src, err := circuits.Builtin("hardcore", n)
		if err != nil {
			return err
		}
		var d *core.Design
		tr.do(parent, "core.load", func(int) { d, err = core.LoadString(fmt.Sprintf("hardcore(%d)", n), logic.BenchString(src)) })
		if err != nil {
			return err
		}
		w.advised = append(w.advised, d.Circuit)
	}
	warm, chk := newSamples(), &checks{}
	w.round(ctx, nil, 0, warm, chk)
	w.warm = w.last
	return chk.err()
}

func (w *flowWorkload) round(ctx context.Context, tr *tracer, parent int, s *samples, c *checks) {
	t0 := time.Now()
	out := make([]flowOutcome, len(flowCorpus))
	for _, i := range passOrder(w.order, len(flowCorpus)) {
		var err error
		out[i], err = w.flow(ctx, tr, parent, s, i)
		c.ok("flow "+w.names[i], err)
		if err != nil {
			return
		}
	}
	s.add("pass", time.Since(t0).Seconds())
	w.last = out
	for i, o := range out {
		if w.warm != nil {
			ref := w.warm[i]
			c.expect("flow "+w.names[i], len(o.patterns) == len(ref.patterns) && o.detected == ref.detected,
				"pass gave %d patterns / %d detected, warm pass %d / %d", len(o.patterns), o.detected, len(ref.patterns), ref.detected)
		}
	}

	probe := w.reg.Timer("advise.probe")
	for p := 0; p < flowAdvisePasses; p++ {
		t1 := time.Now()
		plans := make([]*advise.Plan, len(w.advised))
		for i, c0 := range w.advised {
			var err error
			stage(tr, parent, s, "advise.run", func(id int) {
				before := probe.Stats().TotalNs
				plans[i], err = advise.Run(ctx, c0, advise.Options{Seed: flowToolSeed, Workers: engineWorkers, Metrics: w.reg})
				// The probes (SCOAP plus a bounded ATPG and fault-sim
				// pass) are where the advisor runs the fault engine; the
				// program times them.
				tr.child(id, "advise.probe", probe.Stats().TotalNs-before)
			})
			c.ok("advise "+c0.Name, err)
			if err != nil {
				return
			}
		}
		s.add("pass2", time.Since(t1).Seconds())
		w.plans = plans
	}
}

// passOrder is the order in which the designer works through n
// netlists in one pass, drawn from the workload's seeded stream.
func passOrder(r *rng, n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	shuffle(r, order)
	return order
}

// stage runs one stage call of the designer's path in a span and
// records its latency as an operation sample.
func stage(tr *tracer, parent int, s *samples, name string, f func(id int)) {
	tr.do(parent, name, func(id int) {
		t := time.Now()
		f(id)
		s.add("op", float64(time.Since(t).Nanoseconds())/1e6)
	})
}

// flow runs design i from .bench text to its compacted test set and
// report, timing each layer.
func (w *flowWorkload) flow(ctx context.Context, tr *tracer, parent int, s *samples, i int) (flowOutcome, error) {
	var (
		o   flowOutcome
		d   *core.Design
		err error
	)
	stage(tr, parent, s, "core.load", func(int) { d, err = core.LoadString(w.names[i], w.srcs[i]) })
	if err != nil {
		return o, err
	}
	stage(tr, parent, s, "testability.scoap", func(int) { d.Analyze(10) })
	if d.Circuit.IsSequential() {
		stage(tr, parent, s, "lssd.apply_scan", func(int) { err = d.ApplyScan(core.StyleLSSD) })
		if err != nil {
			return o, err
		}
		o.chain = d.Scan().ChainLength()
	}
	stage(tr, parent, s, "fault.collapse", func(int) { o.faults = d.Faults() })
	o.view = d.View()
	var res *atpg.GenerateResult
	podem := w.reg.Timer("atpg.engine.podem")
	stage(tr, parent, s, "atpg.generate", func(id int) {
		before := podem.Stats().TotalNs
		res, err = atpg.GenerateContext(ctx, d.Circuit, o.view, o.faults, atpg.Config{
			RandomSeed:  flowToolSeed,
			RandomFirst: flowRandomFirst,
			Workers:     engineWorkers,
			Dynamic:     compact.ModeFull.Dynamic(),
			Metrics:     w.reg,
		})
		// The program times the PODEM search itself; the rest of the
		// call is the fault engine's block simulation, dynamic
		// compaction and bookkeeping.
		tr.child(id, "atpg.podem", podem.Stats().TotalNs-before)
	})
	if err != nil {
		return o, err
	}
	o.generated = len(res.Patterns)
	stage(tr, parent, s, "compact.result", func(int) {
		o.stats, err = compact.Result(ctx, d.Circuit, o.view, o.faults, res, compact.Options{
			Mode: compact.ModeFull, Workers: engineWorkers, Seed: flowToolSeed, Metrics: w.reg,
		})
	})
	if err != nil {
		return o, err
	}
	ts := core.TestSet{
		Patterns:   res.Patterns,
		Coverage:   res.Coverage,
		RawCover:   res.RawCover,
		Untestable: len(res.Untestable),
		Aborted:    len(res.Aborted),
		TargetN:    len(o.faults),
		Compaction: o.stats,
	}
	stage(tr, parent, s, "core.report", func(int) { o.report = d.BuildReport(ts) })
	o.patterns = res.Patterns
	o.targets = len(o.faults)
	o.untestable = len(res.Untestable)
	o.aborted = len(res.Aborted)
	for _, det := range res.Detected {
		if det {
			o.detected++
		}
	}
	o.circuit = d.Circuit
	return o, nil
}

func (w *flowWorkload) verify(ctx context.Context, c *checks) {
	for i, o := range w.last {
		// A serial re-grade of the compacted set reproduces the
		// reported coverage.
		ref, err := fault.Simulate(ctx, o.circuit, o.faults, o.patterns, fault.Options{
			Backend: fault.BackendSerial, Workers: 1,
			View: fault.View{Inputs: o.view.Inputs, Outputs: o.view.Outputs}, Metrics: w.reg,
		})
		c.ok("regrade "+w.names[i], err)
		if err != nil {
			continue
		}
		c.expect("regrade "+w.names[i], ref.NumCaught == o.detected && ref.NumCaught == o.stats.DetectedOut &&
			math.Abs(ref.Coverage()-o.report.Coverage) < 1e-12,
			"serial re-grade detects %d (coverage %.6f), flow reported %d (coverage %.6f)",
			ref.NumCaught, ref.Coverage(), o.detected, o.report.Coverage)
	}
	for _, p := range w.plans {
		c.expect("advise "+p.Circuit, monotone(p), "plan coverage decreases or plan total disagrees with its steps")
		c.expect("advise "+p.Circuit, p.Overhead <= p.Budget+1e-12, "plan overhead %.4f exceeds budget %.4f", p.Overhead, p.Budget)
	}
}

// monotone reports whether a plan's coverage never decreases from its
// baseline through every step, and its total matches the last step.
func monotone(p *advise.Plan) bool {
	cov := p.Baseline
	for _, st := range p.Steps {
		if st.Coverage < cov || st.Delta < 0 {
			return false
		}
		cov = st.Coverage
	}
	return p.Coverage == cov
}

func (w *flowWorkload) quality() map[string]float64 {
	var pats, det, targets int
	for _, o := range w.last {
		pats += len(o.patterns)
		det += o.detected
		targets += o.targets
	}
	var over float64
	for _, p := range w.plans {
		over += p.Overhead
	}
	return map[string]float64{
		"test_patterns":      float64(pats),
		"fault_coverage_pct": 100 * float64(det) / float64(targets),
		"dft_overhead_pct":   100 * over / float64(len(w.plans)),
	}
}

func (w *flowWorkload) counts() map[string]float64 {
	out := make(map[string]float64)
	var gen, kept, det, targets, untestable int
	for _, o := range w.last {
		out["core.nets"] += float64(o.circuit.NumNets())
		out["atpg.untestable"] += float64(o.untestable)
		out["atpg.aborted"] += float64(o.aborted)
		out["compact.replay_passes"] += float64(o.stats.ReplayPasses)
		out["lssd.chain_length"] += float64(o.chain)
		gen += o.generated
		kept += len(o.patterns)
		det += o.detected
		targets += o.targets
		untestable += o.untestable
	}
	out["atpg.patterns"] = float64(gen)
	out["atpg.detect_ratio"] = float64(det) / float64(targets-untestable)
	out["compact.ratio"] = float64(gen) / float64(kept)
	for _, p := range w.plans {
		out["advise.steps"] += float64(len(p.Steps))
		out["advise.overhead_gates"] += float64(p.OverheadGates)
	}
	return out
}

func (w *flowWorkload) close() {}

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"dft/internal/circuits"
	"dft/internal/core"
	"dft/internal/diagnose"
	"dft/internal/fault"
	"dft/internal/logic"
	"dft/internal/sim"
	"dft/internal/telemetry"
)

// gradeCorpus is the test floor's design set: the largest builtins,
// two of them as full-scan views, each graded against a random pattern
// set of the given size drawn from gradePatternSeed.
var gradeCorpus = []struct {
	gen      string
	n        int
	scan     bool
	patterns int
}{
	{"mult", 12, false, 2048},
	{"mult", 14, false, 1024},
	{"mult", 16, false, 1024},
	{"alu74181x", 8, false, 1024},
	{"adder", 64, false, 1024},
	{"counter", 32, true, 1024},
	{"hardcore", 32, true, 1024},
}

// gradePatternSeed draws the corpus's pattern sets. It is part of the
// corpus, not drawn from --seed, so every run grades the same sets and
// the quality counts are exact; the seed draws the failing-die lookups
// and the oracle's fault sample.
const gradePatternSeed = 1

// gradePasses is the number of drop-on grading passes in one round:
// a pass is short, so several per round give the median enough
// samples.
const gradePasses = 4

// gradeQueries is the number of failing-die lookups in one round: the
// same number on every design and of every observation kind, so the
// seed changes which faults are looked up but not the mix.
var gradeQueries = 12 * 3 * len(gradeCorpus)

// gradeDesign is one corpus entry with its per-round outputs.
type gradeDesign struct {
	name   string
	c      *logic.Circuit
	view   fault.View
	faults []fault.Fault
	pats   [][]bool
	eng    *fault.Engine // drop-on grading engine, reused every round

	graded *fault.Result        // this round's drop-on grade
	dict   *diagnose.Dictionary // this round's decoded dictionary
	build  *diagnose.Dictionary // this round's built dictionary
}

// lookup is one failing-die query: the observed signature, the fault
// that produced it, and how many of its bits were flipped as tester
// noise (the true fault must rank at exactly that distance).
type lookup struct {
	design int
	sig    diagnose.Signature
	truth  int
	flips  int
}

// gradeWorkload is the test floor: it fault-grades fixed random
// pattern sets with fault dropping, builds a fault dictionary from a
// drop-off grade of the same sets, and answers failing-die lookups.
type gradeWorkload struct {
	seed    int64
	reg     *telemetry.Registry
	designs []*gradeDesign
	queries []lookup
	cnt     map[string]float64
	qual    map[string]float64
}

func (w *gradeWorkload) setup(ctx context.Context, tr *tracer, parent int) error {
	w.reg = telemetry.NewRegistry()
	w.cnt = make(map[string]float64)
	r := newRNG(gradePatternSeed, 1)
	var universe, reps, added, size int
	for _, spec := range gradeCorpus {
		gen, err := circuits.Builtin(spec.gen, spec.n)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("%s(%d)", spec.gen, spec.n)
		src := logic.BenchString(gen)
		var d *core.Design
		tr.do(parent, "core.load", func(int) { d, err = core.LoadString(name, src) })
		if err != nil {
			return err
		}
		// Sizes in gate equivalents, a storage element counting 2, as
		// lssd.Overhead counts them.
		orig := d.Circuit.NumGates() + 2*d.Circuit.NumDFFs()
		size += orig
		if spec.scan {
			tr.do(parent, "lssd.apply_scan", func(int) { err = d.ApplyScan(core.StyleLSSD) })
			if err != nil {
				return err
			}
			sc := d.Scan().Scanned
			added += sc.NumGates() + 2*sc.NumDFFs() - orig
		}
		c := d.Circuit
		var cl fault.Classes
		u := fault.Universe(c)
		tr.do(parent, "fault.collapse", func(int) { cl = fault.CollapseEquiv(c, u) })
		var prog *sim.Program
		tr.do(parent, "sim.compile", func(int) { prog = sim.CompiledFor(c) })
		universe += len(u)
		reps += len(cl.Reps)
		w.cnt["core.nets"] += float64(c.NumNets())
		w.cnt["sim.instrs"] += float64(prog.NumInstrs())
		w.cnt["sim.folded"] += float64(prog.Folded())
		v := d.View()
		fv := fault.View{Inputs: v.Inputs, Outputs: v.Outputs}
		w.designs = append(w.designs, &gradeDesign{
			name:   name,
			c:      c,
			view:   fv,
			faults: cl.Reps,
			pats:   r.patterns(spec.patterns, len(v.Inputs)),
			eng:    fault.NewEngine(c, fault.Options{Workers: engineWorkers, View: fv, Metrics: w.reg}),
		})
	}
	w.cnt["fault.collapse_ratio"] = float64(reps) / float64(universe)
	w.qual = map[string]float64{"dft_overhead_pct": 100 * float64(added) / float64(size)}

	// The warm round fills the compiled-program cache and engine pools
	// and yields the dictionaries the lookup signatures are drawn from.
	warm, chk := newSamples(), &checks{}
	w.passes(ctx, nil, 0, warm, chk)
	if chk.failed == 0 {
		w.queries = w.makeQueries(newRNG(w.seed, 2))
		w.lookups(nil, 0, warm, chk)
	}
	return chk.err()
}

// makeQueries draws the lookup sequence: query i looks up a detected
// fault of design i mod designs, observed exactly, as a truncated
// prefix, or with one to three bits flipped, in turn; the sequence is
// then shuffled.
func (w *gradeWorkload) makeQueries(r *rng) []lookup {
	qs := make([]lookup, 0, gradeQueries)
	for i := 0; i < gradeQueries; i++ {
		di := i % len(w.designs)
		d := w.designs[di]
		fi := r.intn(len(d.faults))
		for !d.graded.Detected[fi] {
			fi = r.intn(len(d.faults))
		}
		n := d.dict.NumPats
		row := d.dict.Row(fi)
		q := lookup{design: di, truth: fi}
		switch i / len(w.designs) % 3 {
		case 0:
			q.sig = diagnose.NewSignature(n)
			copy(q.sig.Bits, row)
		case 1:
			m := n/4 + r.intn(n-n/4)
			q.sig = diagnose.NewSignature(m)
			copy(q.sig.Bits, row)
			if rem := uint(m % 64); rem != 0 {
				q.sig.Bits[len(q.sig.Bits)-1] &= 1<<rem - 1
			}
		default:
			q.sig = diagnose.NewSignature(n)
			copy(q.sig.Bits, row)
			q.flips = 1 + r.intn(3)
			for flipped := map[int]bool{}; len(flipped) < q.flips; {
				p := r.intn(n)
				if !flipped[p] {
					flipped[p] = true
					q.sig.Bits[p/64] ^= 1 << uint(p%64)
				}
			}
		}
		qs = append(qs, q)
	}
	shuffle(r, qs)
	return qs
}

func (w *gradeWorkload) round(ctx context.Context, tr *tracer, parent int, s *samples, c *checks) {
	w.passes(ctx, tr, parent, s, c)
	w.lookups(tr, parent, s, c)
}

// passes runs the drop-on grading passes ("pass") and the drop-off
// dictionary pass ("pass2") over the corpus.
func (w *gradeWorkload) passes(ctx context.Context, tr *tracer, parent int, s *samples, c *checks) {
	for p := 0; p < gradePasses; p++ {
		t0 := time.Now()
		for _, d := range w.designs {
			var err error
			tr.do(parent, "fault.grade", func(int) { d.graded, err = d.eng.Run(ctx, d.faults, d.pats) })
			c.ok("grade "+d.name, err)
			if err != nil {
				return
			}
		}
		s.add("pass", time.Since(t0).Seconds())
	}

	// A floor rebuilding its dictionaries does not keep the old ones.
	for _, d := range w.designs {
		d.build, d.dict = nil, nil
	}
	detail := w.reg.Timer("fault.sim.detail")
	var faultPats, detailNs float64
	t1 := time.Now()
	for _, d := range w.designs {
		var err error
		before := detail.Stats().TotalNs
		tr.do(parent, "diagnose.build", func(id int) {
			d.build, err = diagnose.Build(ctx, d.c, d.faults, d.pats, diagnose.Options{
				Workers: engineWorkers, View: d.view, Metrics: w.reg,
			})
			// The drop-off grade is the engine's share of the build; the
			// program times it, and the trace shows it as a child span.
			tr.child(id, "fault.detail", detail.Stats().TotalNs-before)
		})
		c.ok("dictionary "+d.name, err)
		if err != nil {
			return
		}
		detailNs += float64(detail.Stats().TotalNs - before)
		faultPats += float64(len(d.faults) * len(d.pats))
		tr.do(parent, "diagnose.codec", func(int) {
			var buf bytes.Buffer
			if err = d.build.Encode(&buf); err == nil {
				d.dict, err = diagnose.Decode(&buf)
			}
		})
		c.ok("dictionary codec "+d.name, err)
		if err != nil {
			return
		}
	}
	s.add("pass2", time.Since(t1).Seconds())
	s.add("fault.detail_ms", detailNs/1e6)
	s.add("fault.detail_fault_pats_per_us", faultPats/(detailNs/1e3))
}

// lookups answers the round's failing-die queries, timing each one
// ("op") and checking every answer.
func (w *gradeWorkload) lookups(tr *tracer, parent int, s *samples, c *checks) {
	for _, q := range w.queries {
		d := w.designs[q.design]
		if d.dict == nil {
			c.ok("lookup on "+d.name, errors.New("no dictionary: its build failed"))
			continue
		}
		id := tr.start(parent, "diagnose.rank")
		t0 := time.Now()
		cands := d.dict.Rank(q.sig, 0)
		s.add("op", float64(time.Since(t0).Nanoseconds())/1e6)
		tr.end(id)
		class := 0
		for _, cd := range cands {
			if cd.Distance == 0 {
				class++
			}
		}
		s.add("diagnose.class_size", float64(class))
		c.ok("lookup on "+d.name, checkRank(cands, q))
	}
}

// checkRank is the lookup oracle: the fault that produced the
// signature ranks at the distance its injected noise implies — zero
// for an exact or truncated observation.
func checkRank(cands []diagnose.Candidate, q lookup) error {
	for _, cd := range cands {
		if cd.Index == q.truth {
			if cd.Distance != q.flips {
				return fmt.Errorf("true fault at distance %d, want %d", cd.Distance, q.flips)
			}
			return nil
		}
	}
	return fmt.Errorf("true fault %d missing from the ranking", q.truth)
}

func (w *gradeWorkload) verify(ctx context.Context, c *checks) {
	sample := newRNG(w.seed, 3)
	for _, d := range w.designs {
		if d.graded == nil || d.dict == nil {
			c.ok("verify "+d.name, errors.New("no grade or dictionary to check"))
			continue
		}
		// Drop-on and drop-off grades agree on every fault.
		same := true
		for fi := range d.faults {
			if d.graded.Detected[fi] != !zero(d.dict.Row(fi)) {
				same = false
			}
		}
		c.expect("grade "+d.name, same, "drop-on and drop-off detected sets differ")
		// The decoded dictionary equals the built one.
		c.expect("codec "+d.name, sameRows(d.build, d.dict), "decoded dictionary rows differ from the built ones")
		// On a seeded fault sample both agree with the serial backend.
		var faults []fault.Fault
		var idx []int
		for i := 0; i < 24; i++ {
			fi := sample.intn(len(d.faults))
			faults, idx = append(faults, d.faults[fi]), append(idx, fi)
		}
		ref, err := fault.Simulate(ctx, d.c, faults, d.pats, fault.Options{Backend: fault.BackendSerial, Workers: 1, View: d.view, Metrics: w.reg})
		c.ok("serial "+d.name, err)
		if err == nil {
			agree := true
			for i, fi := range idx {
				if ref.Detected[i] != d.graded.Detected[fi] || ref.DetectedBy[i] != d.graded.DetectedBy[fi] {
					agree = false
				}
			}
			c.expect("serial "+d.name, agree, "serial backend disagrees on the fault sample")
		}
	}
}

func (w *gradeWorkload) quality() map[string]float64 {
	var kept, caught, total int
	for _, d := range w.designs {
		if d.graded == nil {
			continue
		}
		first := make(map[int]bool)
		for _, p := range d.graded.DetectedBy {
			if p >= 0 {
				first[p] = true
			}
		}
		kept += len(first)
		caught += d.graded.NumCaught
		total += len(d.faults)
	}
	q := map[string]float64{
		"test_patterns":      float64(kept),
		"fault_coverage_pct": 100 * float64(caught) / float64(total),
	}
	for k, v := range w.qual {
		q[k] = v
	}
	return q
}

func (w *gradeWorkload) counts() map[string]float64 {
	out := make(map[string]float64, len(w.cnt)+2)
	for k, v := range w.cnt {
		out[k] = v
	}
	var detected, size int
	for _, d := range w.designs {
		if d.graded != nil && d.dict != nil {
			detected += d.graded.NumCaught
			size += d.dict.CompactBytes()
		}
	}
	out["fault.detected"] = float64(detected)
	out["diagnose.dict_bytes"] = float64(size)
	return out
}

func (w *gradeWorkload) close() {}

func zero(row []uint64) bool {
	for _, x := range row {
		if x != 0 {
			return false
		}
	}
	return true
}

func sameRows(a, b *diagnose.Dictionary) bool {
	if len(a.Faults) != len(b.Faults) || a.NumPats != b.NumPats {
		return false
	}
	for fi := range a.Faults {
		ra, rb := a.Row(fi), b.Row(fi)
		if len(ra) != len(rb) {
			return false
		}
		for i := range ra {
			if ra[i] != rb[i] {
				return false
			}
		}
	}
	return true
}

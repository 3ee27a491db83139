package fault

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dft/internal/circuits"
	"dft/internal/logic"
	"dft/internal/telemetry"
)

func randomDetailPatterns(nIn, n int, seed int64) [][]bool {
	rng := rand.New(rand.NewSource(seed))
	pats := make([][]bool, n)
	for i := range pats {
		p := make([]bool, nIn)
		for j := range p {
			p[j] = rng.Intn(2) == 1
		}
		pats[i] = p
	}
	return pats
}

// TestRunDetailMatchesSerialOracle checks every backend's detail rows
// bit-for-bit against a per-pattern ParallelSim oracle on c17.
func TestRunDetailMatchesSerialOracle(t *testing.T) {
	c := circuits.C17()
	faults := Universe(c)
	pats := randomDetailPatterns(len(c.PIs), 100, 7)

	// Oracle: one 1-pattern block per pattern.
	ps := NewParallelSim(c)
	want := make([][]uint64, len(faults))
	for fi := range want {
		want[fi] = make([]uint64, detailWords(len(pats)))
	}
	packed := PackPatternSet(len(c.PIs), pats)
	for p := range pats {
		words := make([]uint64, len(c.PIs))
		for j, b := range pats[p] {
			if b {
				words[j] = 1
			}
		}
		ps.LoadPackedBlock(words, 1)
		for fi, f := range faults {
			if ps.FaultMask(f)&1 != 0 {
				want[fi][p/64] |= 1 << uint(p%64)
			}
		}
	}

	for _, be := range []Backend{BackendParallel, BackendCPT, BackendSerial} {
		t.Run(be.String(), func(t *testing.T) {
			e := NewEngine(c, Options{Backend: be, Workers: 2})
			dr, err := e.RunDetail(context.Background(), faults, packed)
			if err != nil {
				t.Fatal(err)
			}
			for fi := range faults {
				for w := range want[fi] {
					if dr.Detect[fi][w] != want[fi][w] {
						t.Fatalf("fault %s word %d: got %016x want %016x",
							faults[fi].Name(c), w, dr.Detect[fi][w], want[fi][w])
					}
				}
			}
		})
	}
}

// TestRunDetailWorkerInvariance: rows are byte-identical across every
// backend × worker-count combination, including partial tail blocks.
func TestRunDetailWorkerInvariance(t *testing.T) {
	c := circuits.ArrayMultiplier(3)
	faults := Universe(c)
	pats := randomDetailPatterns(len(c.PIs), 130, 9) // 2 full blocks + 2-pattern tail
	packed := PackPatternSet(len(c.PIs), pats)

	ref, err := NewEngine(c, Options{Backend: BackendParallel, Workers: 1}).
		RunDetail(context.Background(), faults, packed)
	if err != nil {
		t.Fatal(err)
	}
	for _, be := range []Backend{BackendParallel, BackendCPT} {
		for _, w := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%v/w%d", be, w), func(t *testing.T) {
				dr, err := NewEngine(c, Options{Backend: be, Workers: w}).
					RunDetail(context.Background(), faults, packed)
				if err != nil {
					t.Fatal(err)
				}
				for fi := range faults {
					for wi := range ref.Detect[fi] {
						if dr.Detect[fi][wi] != ref.Detect[fi][wi] {
							t.Fatalf("fault %d word %d differs from reference", fi, wi)
						}
					}
				}
			})
		}
	}
}

// TestDetailResultFold: the folded Result agrees with a drop-off
// Simulate on first-detection indices.
func TestDetailResultFold(t *testing.T) {
	c := circuits.C17()
	faults := Universe(c)
	pats := randomDetailPatterns(len(c.PIs), 64, 3)
	dr, err := SimulateDetail(context.Background(), c, faults, pats, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Simulate(context.Background(), c, faults, pats, Options{Drop: DropOff})
	if err != nil {
		t.Fatal(err)
	}
	got := dr.Result()
	if got.NumCaught != want.NumCaught {
		t.Fatalf("caught %d, want %d", got.NumCaught, want.NumCaught)
	}
	for fi := range faults {
		if got.Detected[fi] != want.Detected[fi] {
			t.Fatalf("fault %d detected %v, want %v", fi, got.Detected[fi], want.Detected[fi])
		}
		if got.Detected[fi] && got.DetectedBy[fi] != want.DetectedBy[fi] {
			t.Fatalf("fault %d first detect %d, want %d", fi, got.DetectedBy[fi], want.DetectedBy[fi])
		}
		if got.Detected[fi] && dr.FirstDetect(fi) != got.DetectedBy[fi] {
			t.Fatalf("FirstDetect disagrees with folded result for fault %d", fi)
		}
	}
}

// TestRunDetailSpanBackend pins Auto's detail-path choice and the span
// label: Auto resolves only to a path RunDetail has (cpt or parallel),
// an explicit serial request runs the parallel path, and the span's
// backend attribute names the path that ran. The shapes are the
// smallest and largest of the dictionary builds that dftd diagnose
// jobs run.
func TestRunDetailSpanBackend(t *testing.T) {
	c17, alu := circuits.C17(), circuits.ALU74181()
	for _, tc := range []struct {
		name    string
		c       *logic.Circuit
		backend Backend
		faults  int
		pats    int
		want    string
	}{
		{"c17 22x7 auto", c17, Auto, 22, 7, "parallel"},
		{"alu 194x8 auto", alu, Auto, 194, 8, "cpt"},
		{"alu 194x64 auto", alu, Auto, 194, 64, "parallel"},
		{"c17 22x7 serial", c17, BackendSerial, 22, 7, "parallel"},
		{"c17 22x7 cpt", c17, BackendCPT, 22, 7, "cpt"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faults := Universe(tc.c)
			if len(faults) < tc.faults {
				t.Fatalf("%s has %d faults, want at least %d", tc.c.Name, len(faults), tc.faults)
			}
			faults = faults[:tc.faults]
			reg := telemetry.NewRegistry()
			pats := randomDetailPatterns(len(tc.c.PIs), tc.pats, 5)
			if _, err := SimulateDetail(context.Background(), tc.c, faults, pats,
				Options{Backend: tc.backend, Workers: 1, Metrics: reg}); err != nil {
				t.Fatal(err)
			}
			events, _ := reg.Trace().Events()
			var got []string
			for _, e := range events {
				if e.Name == "fault.sim.detail" {
					got = append(got, e.Attrs["backend"])
				}
			}
			if len(got) != 1 || got[0] != tc.want {
				t.Fatalf("detail span backend = %v, want [%s]", got, tc.want)
			}
		})
	}
}

func TestRunDetailCancellation(t *testing.T) {
	c := circuits.ArrayMultiplier(4)
	faults := Universe(c)
	pats := randomDetailPatterns(len(c.PIs), 256, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, be := range []Backend{BackendParallel, BackendCPT} {
		if _, err := SimulateDetail(ctx, c, faults, pats, Options{Backend: be}); err == nil {
			t.Fatalf("%v: cancelled detail run returned no error", be)
		}
	}
}

func TestParseFault(t *testing.T) {
	cases := []struct {
		in   string
		want Fault
		ok   bool
	}{
		{"g12 s-a-0", Fault{12, Stem, 0}, true},
		{"g12.in3 s-a-1", Fault{12, 3, 1}, true},
		{"  g0 s-a-1  ", Fault{0, Stem, 1}, true},
		{"g12", Fault{}, false},
		{"g12 s-a-2", Fault{}, false},
		{"x12 s-a-0", Fault{}, false},
		{"g12.inX s-a-0", Fault{}, false},
		{"g-3 s-a-0", Fault{}, false},
	}
	for _, tc := range cases {
		f, err := ParseFault(tc.in)
		if tc.ok != (err == nil) {
			t.Fatalf("ParseFault(%q) err=%v, want ok=%v", tc.in, err, tc.ok)
		}
		if tc.ok && f != tc.want {
			t.Fatalf("ParseFault(%q) = %+v, want %+v", tc.in, f, tc.want)
		}
		if tc.ok {
			back, err := ParseFault(f.String())
			if err != nil || back != f {
				t.Fatalf("String round-trip of %+v failed: %+v %v", f, back, err)
			}
		}
	}
	c := circuits.C17()
	if err := (Fault{Gate: 3, Pin: Stem}).Validate(c); err != nil {
		t.Fatal(err)
	}
	if err := (Fault{Gate: 99, Pin: Stem}).Validate(c); err == nil {
		t.Fatal("out-of-range gate validated")
	}
	if err := (Fault{Gate: 0, Pin: 5}).Validate(c); err == nil {
		t.Fatal("out-of-range pin validated")
	}
}

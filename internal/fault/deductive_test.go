package fault

import (
	"context"
	"math/rand"
	"testing"

	"dft/internal/circuits"
	"dft/internal/logic"
)

// TestDeductiveMatchesParallel is the engine cross-check: the deductive
// simulator must agree with the parallel-pattern simulator fault by
// fault and pattern by pattern.
func TestDeductiveMatchesParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cases := []*logic.Circuit{
		circuits.C17(),
		circuits.RippleAdder(4),
		circuits.ParityTree(7),
		circuits.ALU74181(),
		circuits.RandomCircuit(rng, 10, 200, 6, 4),
	}
	for _, c := range cases {
		u := Universe(c)
		patterns := make([][]bool, 100)
		for k := range patterns {
			p := make([]bool, len(c.PIs))
			for i := range p {
				p[i] = rng.Intn(2) == 1
			}
			patterns[k] = p
		}
		ded, err := SimulateDeductive(context.Background(), c, View{}, u, patterns)
		if err != nil {
			t.Fatal(err)
		}
		par, err := Simulate(context.Background(), c, u, patterns, Options{Backend: BackendParallel, Drop: DropOff})
		if err != nil {
			t.Fatal(err)
		}
		for i := range u {
			if ded.Detected[i] != par.Detected[i] || ded.DetectedBy[i] != par.DetectedBy[i] {
				t.Fatalf("%s: fault %s: deductive (%v,%d) vs parallel (%v,%d)",
					c.Name, u[i].Name(c),
					ded.Detected[i], ded.DetectedBy[i],
					par.Detected[i], par.DetectedBy[i])
			}
		}
	}
}

func TestDeductiveSinglePassLists(t *testing.T) {
	// AND gate, inputs 1,1: both input s-a-0 faults and output s-a-0
	// flip the output; input s-a-1 faults do not.
	c := logic.New("and2")
	a := c.AddInput("a")
	b := c.AddInput("b")
	y := c.AddGate(logic.And, "y", a, b)
	c.MarkOutput(y)
	c.MustFinalize()
	u := Universe(c)
	ds := NewDeductiveSim(c, u)
	det := ds.Pattern([]bool{true, true})
	want := map[Fault]bool{
		{a, Stem, logic.Zero}: true,
		{b, Stem, logic.Zero}: true,
		{y, 0, logic.Zero}:    true,
		{y, 1, logic.Zero}:    true,
		{y, Stem, logic.Zero}: true,
	}
	for i, f := range u {
		got := det[i/64]>>uint(i%64)&1 == 1
		if got != want[f] {
			t.Fatalf("pattern 11: fault %s detected=%v, want %v", f.Name(c), got, want[f])
		}
	}
	// Inputs 0,1: only a s-a-1, y.in0 s-a-1 and y s-a-1 flip.
	det = ds.Pattern([]bool{false, true})
	want = map[Fault]bool{
		{a, Stem, logic.One}: true,
		{y, 0, logic.One}:    true,
		{y, Stem, logic.One}: true,
	}
	for i, f := range u {
		got := det[i/64]>>uint(i%64)&1 == 1
		if got != want[f] {
			t.Fatalf("pattern 01: fault %s detected=%v, want %v", f.Name(c), got, want[f])
		}
	}
}

func TestDeductiveXorParity(t *testing.T) {
	// Reconvergent fanout through XOR: a fault reaching both XOR pins
	// cancels (even parity) — the symmetric-difference rule.
	c := logic.New("xorre")
	a := c.AddInput("a")
	b1 := c.AddGate(logic.Buf, "b1", a)
	b2 := c.AddGate(logic.Buf, "b2", a)
	y := c.AddGate(logic.Xor, "y", b1, b2)
	c.MarkOutput(y)
	c.MustFinalize()
	u := Universe(c)
	ds := NewDeductiveSim(c, u)
	det := ds.Pattern([]bool{true})
	// The PI stem fault flips both XOR pins: not detected.
	for i, f := range u {
		got := det[i/64]>>uint(i%64)&1 == 1
		if f == (Fault{a, Stem, logic.Zero}) && got {
			t.Fatal("reconvergent fault through XOR must cancel")
		}
		// Single-branch faults (buffer outputs) must be detected.
		if f == (Fault{b1, Stem, logic.Zero}) && !got {
			t.Fatal("buffer stem fault must flip exactly one pin and be detected")
		}
	}
}

func BenchmarkDeductiveVsParallel(b *testing.B) {
	c := circuits.ArrayMultiplier(6)
	u := Universe(c)
	rng := rand.New(rand.NewSource(1))
	patterns := make([][]bool, 64)
	for k := range patterns {
		p := make([]bool, len(c.PIs))
		for i := range p {
			p[i] = rng.Intn(2) == 1
		}
		patterns[k] = p
	}
	b.Run("deductive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SimulateDeductive(context.Background(), c, View{}, u, patterns); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Simulate(context.Background(), c, u, patterns,
				Options{Backend: BackendParallel, Drop: DropOff}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package main

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"dft/internal/service"
)

func TestRNGIsDeterministic(t *testing.T) {
	a, b, c := newRNG(7, 1), newRNG(7, 1), newRNG(7, 2)
	pa, pb, pc := a.patterns(5, 70), b.patterns(5, 70), c.patterns(5, 70)
	if !reflect.DeepEqual(pa, pb) {
		t.Fatal("same seed and stream gave different patterns")
	}
	if reflect.DeepEqual(pa, pc) {
		t.Fatal("different streams gave the same patterns")
	}
	xs, ys := []int{1, 2, 3, 4, 5, 6, 7, 8}, []int{1, 2, 3, 4, 5, 6, 7, 8}
	shuffle(newRNG(3, 0), xs)
	shuffle(newRNG(3, 0), ys)
	if !reflect.DeepEqual(xs, ys) {
		t.Fatal("shuffle is not a function of the seed")
	}
}

// The service job sequence is a function of the seed; another seed
// changes seeds, faults and order but not the mix.
func TestServiceSequenceIsSeeded(t *testing.T) {
	seq := func(seed int64) *serviceWorkload {
		w := &serviceWorkload{seed: seed}
		if err := w.makeTemplates(newRNG(seed, 21)); err != nil {
			t.Fatal(err)
		}
		return w
	}
	a, b, c := seq(5), seq(5), seq(6)
	if !reflect.DeepEqual(a.templates, b.templates) {
		t.Fatal("same seed gave different job sequences")
	}
	if reflect.DeepEqual(a.templates, c.templates) {
		t.Fatal("different seeds gave the same job sequence")
	}
	if len(a.templates) != serviceJobs {
		t.Fatalf("%d jobs, want %d", len(a.templates), serviceJobs)
	}
	if !reflect.DeepEqual(mix(a), mix(c)) {
		t.Fatalf("the job mix depends on the seed: %v vs %v", mix(a), mix(c))
	}
	r1, r2 := a.requests(1), a.requests(2)
	for i, tpl := range a.templates {
		if tpl.repeat > 0 {
			if !reflect.DeepEqual(r1[i], r1[i-tpl.repeat]) {
				t.Fatalf("job %d does not repeat job %d", i, i-tpl.repeat)
			}
			continue
		}
		if r1[i].Options.Seed == r2[i].Options.Seed {
			t.Fatalf("job %d has the same seed in two rounds", i)
		}
	}
	shape := func(reqs []service.JobRequest) []string {
		var out []string
		for i, q := range reqs {
			if a.templates[i].repeat == 0 {
				out = append(out, fmt.Sprintf("%s/%s(%d)", q.Kind, q.Builtin, q.N))
			}
		}
		return out
	}
	s1, s2 := shape(r1), shape(r2)
	if reflect.DeepEqual(s1, s2) {
		t.Fatal("rounds 1 and 2 run the jobs in the same order")
	}
	sort.Strings(s1)
	sort.Strings(s2)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("rounds 1 and 2 run different mixes of distinct jobs")
	}
}

func mix(w *serviceWorkload) map[string]int {
	m := map[string]int{}
	for _, t := range w.templates {
		key := "repeat"
		if t.repeat == 0 {
			key = string(t.req.Kind) + "/" + t.req.Builtin
		}
		m[key]++
	}
	return m
}

func TestFlowPassOrderIsSeeded(t *testing.T) {
	orders := func(seed int64) [][]int {
		r := newRNG(seed, 11)
		return [][]int{passOrder(r, 8), passOrder(r, 8)}
	}
	a, b, c := orders(1), orders(1), orders(2)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Fatal("pass order is not a function of the seed")
	}
	for _, o := range append(a, c...) {
		seen := make([]bool, 8)
		for _, i := range o {
			seen[i] = true
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("pass order %v skips netlist %d", o, i)
			}
		}
	}
}

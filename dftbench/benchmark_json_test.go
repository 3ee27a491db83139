package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// The metrics the benchmark prints are exactly the ones BENCHMARK.json
// declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}

	s := newSamples()
	for i := 0; i < minOps; i++ {
		s.add("op", float64(i+1))
	}
	s.add("pass", 1)
	s.add("pass2", 2)
	e2e, err := endToEnd([]float64{0.5}, 1<<20, s, map[string]float64{"test_patterns": 1, "fault_coverage_pct": 2, "dft_overhead_pct": 3})
	if err != nil {
		t.Fatal(err)
	}
	compare(t, "end_to_end", doc.EndToEnd, e2e)

	layers := layerMetrics(nil, newSamples(), newSamples(), nil, nil, &checks{})
	compare(t, "per_layer", doc.PerLayer, layers)
}

func compare(t *testing.T, list string, declared []struct{ Name, Unit string }, got map[string]metric) {
	t.Helper()
	for _, d := range declared {
		m, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s declared but not reported", list, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s reported in %q, declared in %q", list, d.Name, m.Unit, d.Unit)
		}
	}
	if len(got) != len(declared) {
		var extra []string
		for k := range got {
			extra = append(extra, k)
		}
		sort.Strings(extra)
		t.Errorf("%s: reports %d metrics %v, declares %d", list, len(got), extra, len(declared))
	}
}

package main

import "testing"

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.round", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "fault.grade", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "fault.grade", Start: 20, End: 50}, // overlaps 2: counted once
		{ID: 4, Parent: 1, Name: "diagnose.rank", Start: 60, End: 70},
		{ID: 5, Parent: 4, Name: "fault.detail", Start: 65, End: 90},  // clipped to its parent
		{ID: 6, Parent: 1, Name: "service.post", Start: 95, End: 120}, // runs past the root
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - (40 + 10 + 5), 2: 20, 3: 30, 4: 5, 5: 25, 6: 25}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	r := roots(spans)
	for _, s := range spans {
		if r[s.ID] != 1 {
			t.Errorf("root of span %d = %d, want 1", s.ID, r[s.ID])
		}
	}
	if got := spans[4].layer(); got != "fault" {
		t.Errorf("layer = %q, want fault", got)
	}
}

func TestTracerRecordsNesting(t *testing.T) {
	tr := newTracer()
	root := tr.start(0, "bench.round")
	tr.do(root, "core.load", func(id int) { tr.child(id, "sim.compile", 0) })
	open := tr.start(root, "never.closed")
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d closed spans, want 3: %+v", len(spans), spans)
	}
	byName := map[string]span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["core.load"].Parent != root || byName["sim.compile"].Parent != byName["core.load"].ID {
		t.Fatalf("wrong parents: %+v", spans)
	}
	if byName["sim.compile"].Start != byName["core.load"].Start {
		t.Fatal("a program-timed child starts with its parent")
	}
	_ = open

	var off *tracer // untraced runs pass a nil tracer
	if id := off.start(0, "x"); id != 0 {
		t.Fatal("nil tracer returned a span")
	}
	off.end(0)
	off.child(1, "x", 5)
	ran := false
	off.do(0, "x", func(int) { ran = true })
	if !ran {
		t.Fatal("nil tracer skipped the traced call")
	}
}

// The engine bound counts the fault layer and the self time of the
// calls that may run the engine untimed, not their program-timed
// non-engine children.
func TestEngineBoundShare(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.round", Start: 0, End: 200},
		{ID: 2, Parent: 1, Name: "atpg.generate", Start: 0, End: 100},
		{ID: 3, Parent: 2, Name: "atpg.podem", Start: 0, End: 80},
		{ID: 4, Parent: 1, Name: "fault.collapse", Start: 100, End: 110},
		{ID: 5, Parent: 1, Name: "advise.run", Start: 110, End: 150},
		{ID: 6, Parent: 5, Name: "advise.probe", Start: 110, End: 140},
		{ID: 7, Parent: 1, Name: "core.load", Start: 150, End: 200},
	}
	m := layerMetrics(spans, newSamples(), newSamples(), nil, nil, &checks{})
	// atpg.generate 20 + fault.collapse 10 + advise.probe 30, of 200.
	if got := m["share.engine_bound_pct"].Value; got != 30 {
		t.Errorf("share.engine_bound_pct = %v, want 30", got)
	}
	if got := m["share.atpg_pct"].Value; got != 50 {
		t.Errorf("share.atpg_pct = %v, want 50", got)
	}
}

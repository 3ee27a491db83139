// Command dftbench is the toolkit's benchmark. It runs one workload —
// grade, flow or service — for a fixed time, checks every output
// against an oracle, and prints one JSON result line. With --trace 1
// it wraps each call into a layer in a span and reports per-layer
// figures instead of end-to-end ones. README.md in this directory
// describes the workloads and metrics; run.sh builds and runs it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// Worker counts are explicit, never automatic, and never above the
// two CPUs the benchmark is sized for.
const (
	engineWorkers  = 2 // fault engine, ATPG, compaction and advisor sharding
	serverWorkers  = 2 // dftd job pool
	serviceClients = 2 // closed-loop HTTP clients
	jobWorkers     = 1 // fault-engine sharding inside one service job
)

// Run shape: set-up repeats setups times and reports the median; the
// measurement repeats rounds until the time is up, but never fewer
// than minRounds rounds or minOps operation samples, so medians and
// the p99 always rest on enough samples.
const (
	setups    = 3
	minRounds = 5
	minOps    = 1000
)

// workload is one benchmark workload. A fresh value is set up for each
// set-up repetition; the last one is measured.
type workload interface {
	// setup builds the inputs from the seed and runs one untimed warm
	// round so program caches and pools are full before timing.
	setup(ctx context.Context, tr *tracer, parent int) error
	// round runs one measured round, recording its samples and
	// counting each operation and oracle check into c.
	round(ctx context.Context, tr *tracer, parent int, s *samples, c *checks)
	// verify runs the correctness oracles, counting into c.
	verify(ctx context.Context, c *checks)
	// quality returns the exact quality counts of the workload's
	// outputs: test_patterns, fault_coverage_pct, dft_overhead_pct.
	quality() map[string]float64
	// counts returns the per-layer counts of the last round.
	counts() map[string]float64
	// close releases what setup started.
	close()
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "grade":
		return &gradeWorkload{seed: seed}, nil
	case "flow":
		return &flowWorkload{seed: seed}, nil
	case "service":
		return &serviceWorkload{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want grade, flow or service)", name)
}

// samples collects a run's measurements by key. Keys "pass", "pass2"
// and "op" feed the end-to-end metrics; any other key is a per-layer
// sample series named like its metric.
type samples struct {
	mu sync.Mutex
	m  map[string][]float64
}

func newSamples() *samples { return &samples{m: make(map[string][]float64)} }

func (s *samples) add(key string, v float64) {
	s.mu.Lock()
	s.m[key] = append(s.m[key], v)
	s.mu.Unlock()
}

func (s *samples) get(key string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[key]
}

// checks counts operations and correctness failures.
type checks struct {
	mu        sync.Mutex
	attempted int
	failed    int
}

// ok records one operation; a non-nil err marks it failed.
func (c *checks) ok(what string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		if c.failed <= 20 {
			fmt.Fprintf(os.Stderr, "dftbench: %s: %v\n", what, err)
		}
	}
}

// err summarizes the failures counted so far, nil when there are none.
func (c *checks) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d operations failed", c.failed, c.attempted)
}

// expect records one oracle comparison.
func (c *checks) expect(what string, good bool, format string, args ...any) {
	var err error
	if !good {
		err = fmt.Errorf(format, args...)
	}
	c.ok(what, err)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: grade, flow or service")
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Int("seconds", 10, "measurement time in seconds")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		root    = flag.String("root", ".", "repository root, where traces are written")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "dftbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *trace == 1, *root); err != nil {
		fmt.Fprintln(os.Stderr, "dftbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, root string) error {
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	ctx := context.Background()

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var w workload
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if w != nil {
			w.close()
		}
		var err error
		if w, err = newWorkload(name, seed); err != nil {
			return err
		}
		id := tr.start(0, "bench.setup")
		t0 := time.Now()
		err = w.setup(ctx, tr, id)
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		tr.end(id)
		if err != nil {
			w.close()
			return fmt.Errorf("%s set-up: %w", name, err)
		}
	}

	// In a traced run, rounds alternate between traced and untraced so
	// the difference between the two is the tracing overhead.
	plain, withTrace := newSamples(), newSamples()
	var chk checks
	var gcs []memDelta
	var retained uint64
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for r := 0; r < minRounds || time.Now().Before(deadline) || len(plain.get("op")) < minOps; r++ {
		// Every round starts from a collected heap, so no round inherits
		// the previous one's collection work; the heap the collection
		// leaves is what the workload retains.
		retained = max(retained, retainedHeap())
		if traced && r%2 == 0 {
			id := tr.start(0, "bench.round")
			w.round(ctx, tr, id, withTrace, &chk)
			tr.end(id)
			continue
		}
		before := readMem()
		w.round(ctx, nil, 0, plain, &chk)
		gcs = append(gcs, readMem().since(before))
	}
	retained = max(retained, retainedHeap())
	w.verify(ctx, &chk)
	quality, counts := w.quality(), w.counts()
	w.close()

	res := result{Attempted: chk.attempted, Failed: chk.failed}
	res.Correct = chk.failed == 0
	prov := provenance(root, name, seed, seconds, traced)
	if traced {
		spans := tr.snapshot()
		res.Metrics = layerMetrics(spans, withTrace, plain, gcs, counts, &chk)
		if err := writeTrace(root, name, seed, prov, spans); err != nil {
			return err
		}
	} else {
		var err error
		if res.Metrics, err = endToEnd(setupTimes, retained, plain, quality); err != nil {
			return err
		}
	}
	if enc, err := json.Marshal(prov); err == nil {
		fmt.Println(string(enc))
	}
	enc, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	return nil
}

// endToEnd assembles the end-to-end metrics of an untraced run.
func endToEnd(setupTimes []float64, retainedBytes uint64, s *samples, q map[string]float64) (map[string]metric, error) {
	ops := s.get("op")
	p99, err := tail(ops, 0.99)
	if err != nil {
		return nil, fmt.Errorf("op_p99_ms: %w", err)
	}
	m := map[string]metric{
		"setup_s":          {median(setupTimes), "s"},
		"retained_heap_mb": {float64(retainedBytes) / (1 << 20), "MB"},
		"pass_s":           {median(s.get("pass")), "s"},
		"pass2_s":          {median(s.get("pass2")), "s"},
		"op_p50_ms":        {median(ops), "ms"},
		"op_p99_ms":        {p99, "ms"},
	}
	for _, k := range []string{"test_patterns", "fault_coverage_pct", "dft_overhead_pct"} {
		v, ok := q[k]
		if !ok {
			return nil, fmt.Errorf("workload reported no %s", k)
		}
		unit := "%"
		if k == "test_patterns" {
			unit = "count"
		}
		m[k] = metric{v, unit}
	}
	return m, nil
}

// writeTrace writes the run's spans and provenance under
// .bench_build/traces in the repository root.
func writeTrace(root, name string, seed int64, prov map[string]any, spans []span) error {
	dir := filepath.Join(root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := map[string]any{"provenance": prov, "spans": spans}
	enc, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	file := filepath.Join(dir, name+"-"+strconv.FormatInt(seed, 10)+".json")
	return os.WriteFile(file, enc, 0o644)
}

// retainedHeap runs a full collection and returns the live heap it
// leaves, in bytes. Unlike a heap sampled mid-run, it does not include
// garbage a slow collection had not yet freed, so it does not depend
// on how busy the host is.
func retainedHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// memDelta is the garbage-collector activity of one round.
type memDelta struct {
	gcCycles uint32
	pauseNs  uint64
	alloc    uint64
}

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{gcCycles: ms.NumGC, pauseNs: ms.PauseTotalNs, alloc: ms.TotalAlloc}
}

func (m memDelta) since(b memDelta) memDelta {
	return memDelta{m.gcCycles - b.gcCycles, m.pauseNs - b.pauseNs, m.alloc - b.alloc}
}

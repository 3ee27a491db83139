package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"dft/internal/advise"
	"dft/internal/circuits"
	"dft/internal/compact"
	"dft/internal/core"
	"dft/internal/fault"
	"dft/internal/service"
	"dft/internal/telemetry"
)

const (
	serviceJobs   = 128 // jobs in one round, dealt alternately to the clients; 24 of them repeat a recent request
	serviceSample = 16  // first-round reports checked against direct library calls
)

// circuitRef names a builtin circuit a job runs on.
type circuitRef struct {
	gen  string
	n    int
	scan bool
}

// The job mix: small and medium circuits, so each job computes for a
// few milliseconds and the service's own admission, queueing, event
// streaming and report encoding are a visible share of its latency.
var (
	faultsimCircuits = []circuitRef{{"c17", 0, false}, {"alu74181", 0, false}, {"mult", 4, false}, {"mult", 5, false}, {"adder", 16, false}, {"counter", 8, true}}
	faultsimPatterns = []int{64, 128, 256, 512}
	atpgCircuits     = []circuitRef{{"c17", 0, false}, {"alu74181", 0, false}, {"adder", 8, false}, {"mult", 4, false}, {"counter", 8, true}}
	atpgCompaction   = []string{"", "reverse", "full"}
	diagnoseCircuits = []circuitRef{{"c17", 0, false}, {"alu74181", 0, false}, {"adder", 8, false}}
	adviseSizesSvc   = []int{8, 12}
)

// jobTemplate is one entry of the round's job sequence. A repeat
// entry resubmits the request `repeat` positions earlier; any other
// entry is made distinct in each round by offsetting its seed.
type jobTemplate struct {
	req    service.JobRequest
	repeat int
}

// jobRecord is what a client observed for one job.
type jobRecord struct {
	req  service.JobRequest
	view service.JobView
}

// serviceWorkload is dftd as its callers use it: an in-process server
// on loopback HTTP and closed-loop clients that each POST a job, stream
// its events to the terminal one and fetch the report before sending
// the next. Every round replays the same seeded job sequence with fresh
// seeds, so most requests miss the result cache and a fixed share
// repeats a recent request; the second timed pass replays a round's
// requests once more, all of them served from the cache.
type serviceWorkload struct {
	seed      int64
	reg       *telemetry.Registry
	srv       *service.Server
	hs        *http.Server
	served    chan struct{}
	base      string
	clients   []*http.Client
	templates []jobTemplate
	rounds    int
	first     [][]jobRecord // the first qualityRounds measured rounds
}

// qualityRounds is the number of measured rounds whose reports give the
// quality counts (a median over rounds) and the oracle sample.
const qualityRounds = minRounds

func (w *serviceWorkload) setup(ctx context.Context, tr *tracer, parent int) error {
	w.reg = telemetry.NewRegistry()
	if err := w.makeTemplates(newRNG(w.seed, 21)); err != nil {
		return err
	}
	id := tr.start(parent, "service.start")
	w.srv = service.New(service.Config{Workers: serverWorkers, QueueDepth: 2 * serviceJobs, Metrics: w.reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tr.end(id)
		return err
	}
	w.hs = &http.Server{Handler: w.srv}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.hs.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	w.base = "http://" + ln.Addr().String()
	for i := 0; i < serviceClients; i++ {
		w.clients = append(w.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}})
	}
	tr.end(id)
	warm, chk := newSamples(), &checks{}
	w.round(ctx, nil, 0, warm, chk)
	w.first = w.first[:0]
	return chk.err()
}

// makeTemplates draws the round's job sequence from the seed. The mix
// is fixed — every circuit, pattern count and compaction mode appears
// equally often — and the seed picks job seeds, injected faults, the
// order, and which requests repeat.
func (w *serviceWorkload) makeTemplates(r *rng) error {
	var distinct []jobTemplate
	add := func(kind service.Kind, ref circuitRef, edit func(*service.Options)) {
		opt := service.Options{Seed: int64(1 + r.intn(1<<20)), Workers: jobWorkers}
		edit(&opt)
		distinct = append(distinct, jobTemplate{req: jobRequest(kind, ref, opt)})
	}
	for i := 0; i < 5*len(faultsimCircuits); i++ {
		add(service.KindFaultSim, faultsimCircuits[i%len(faultsimCircuits)], func(o *service.Options) {
			o.Patterns = faultsimPatterns[i/len(faultsimCircuits)%len(faultsimPatterns)]
		})
	}
	for i := 0; i < 6*len(atpgCircuits); i++ {
		add(service.KindATPG, atpgCircuits[i%len(atpgCircuits)], func(o *service.Options) {
			o.Random = 16
			o.CompactMode = atpgCompaction[i/len(atpgCircuits)%len(atpgCompaction)]
		})
	}
	for i := 0; i < 8*len(diagnoseCircuits); i++ {
		ref := diagnoseCircuits[i%len(diagnoseCircuits)]
		c, err := circuits.Builtin(ref.gen, ref.n)
		if err != nil {
			return err
		}
		u := fault.Universe(c)
		add(service.KindDiagnose, ref, func(o *service.Options) {
			o.Patterns = 128
			o.Inject = u[r.intn(len(u))].String()
		})
	}
	for i := 0; i < 10*len(adviseSizesSvc); i++ {
		add(service.KindAdvise, circuitRef{"hardcore", adviseSizesSvc[i%len(adviseSizesSvc)], false}, func(*service.Options) {})
	}
	shuffle(r, distinct)
	// Repeats go at seeded positions after the first few jobs.
	repeat := make([]bool, serviceJobs)
	for n := 0; n < serviceJobs-len(distinct); {
		if i := 8 + r.intn(serviceJobs-8); !repeat[i] {
			repeat[i] = true
			n++
		}
	}
	for i := range repeat {
		if repeat[i] {
			w.templates = append(w.templates, jobTemplate{repeat: 1 + r.intn(6)})
		} else {
			w.templates = append(w.templates, distinct[0])
			distinct = distinct[1:]
		}
	}
	return nil
}

func jobRequest(kind service.Kind, ref circuitRef, opt service.Options) service.JobRequest {
	opt.Scan = ref.scan
	return service.JobRequest{Kind: kind, Builtin: ref.gen, N: ref.n, Options: opt}
}

// requests materializes round r's request list: distinct entries get
// round-specific seeds and take the non-repeat positions in a seeded
// order of their own each round, so which jobs the two clients run
// side by side changes from round to round; repeats copy an earlier
// entry verbatim.
func (w *serviceWorkload) requests(r int) []service.JobRequest {
	var distinct []service.JobRequest
	for _, t := range w.templates {
		if t.repeat == 0 {
			distinct = append(distinct, t.req)
		}
	}
	shuffle(newRNG(w.seed, 100+uint64(r)), distinct)
	out := make([]service.JobRequest, len(w.templates))
	for i, t := range w.templates {
		if t.repeat > 0 {
			out[i] = out[i-t.repeat]
			continue
		}
		out[i] = distinct[0]
		out[i].Options.Seed += int64(r) << 21
		distinct = distinct[1:]
	}
	return out
}

func (w *serviceWorkload) round(ctx context.Context, tr *tracer, parent int, s *samples, c *checks) {
	reqs := w.requests(w.rounds)
	w.rounds++
	seen := &idSet{ids: make(map[string]bool)}
	t0 := time.Now()
	recs := w.replay(ctx, tr, parent, reqs, s, c, seen)
	s.add("pass", time.Since(t0).Seconds())
	if len(w.first) < qualityRounds {
		w.first = append(w.first, recs)
	}
	hits := 0
	for _, rec := range recs {
		if rec.view.Cached {
			hits++
		}
	}
	s.add("service.cache_hit_ratio", float64(hits)/float64(len(recs)))
	s.add("service.coalesced_ratio", float64(seen.dups)/float64(len(recs)))

	t1 := time.Now()
	// The cached replay's per-job figures are not job latencies of the
	// mix; only its total time is kept.
	cached := w.replay(ctx, tr, parent, reqs, newSamples(), c, &idSet{ids: make(map[string]bool)})
	s.add("pass2", time.Since(t1).Seconds())
	for _, rec := range cached {
		c.expect("cached replay", rec.view.Cached, "a replayed request was not served from the cache")
	}
}

// idSet records the job IDs POST returned in one round; a repeat that
// lands on an in-flight job gets that job's ID back.
type idSet struct {
	mu   sync.Mutex
	ids  map[string]bool
	dups int
}

func (s *idSet) add(id string) {
	s.mu.Lock()
	if s.ids[id] {
		s.dups++
	}
	s.ids[id] = true
	s.mu.Unlock()
}

// replay runs reqs through the clients, job i on client i mod
// clients, each client closed-loop, and records each job's latency as
// an "op" sample.
func (w *serviceWorkload) replay(ctx context.Context, tr *tracer, parent int, reqs []service.JobRequest, s *samples, c *checks, seen *idSet) []jobRecord {
	recs := make([]jobRecord, len(reqs))
	var wg sync.WaitGroup
	for ci, client := range w.clients {
		wg.Add(1)
		go func(ci int, client *http.Client) {
			defer wg.Done()
			for i := ci; i < len(reqs); i += len(w.clients) {
				id := tr.start(parent, "bench.job")
				t0 := time.Now()
				view, err := w.job(ctx, tr, id, client, reqs[i], s, seen)
				lat := time.Since(t0)
				tr.end(id)
				if err == nil && view.State != service.StateDone {
					err = fmt.Errorf("job %s ended %s: %s", view.ID, view.State, view.Error)
				}
				if err == nil && reqs[i].Kind == service.KindDiagnose {
					err = checkDiagnosed(view)
				}
				c.ok(string(reqs[i].Kind)+" job", err)
				s.add("op", float64(lat.Nanoseconds())/1e6)
				recs[i] = jobRecord{req: reqs[i], view: view}
			}
		}(ci, client)
	}
	wg.Wait()
	return recs
}

// job submits one request, streams its events to the terminal one and
// fetches the finished job with its report.
func (w *serviceWorkload) job(ctx context.Context, tr *tracer, parent int, client *http.Client, req service.JobRequest, s *samples, seen *idSet) (service.JobView, error) {
	var view service.JobView
	body, err := json.Marshal(req)
	if err != nil {
		return view, err
	}
	id := tr.start(parent, "service.post")
	t0 := time.Now()
	err = w.call(ctx, client, http.MethodPost, "/v1/jobs", body, http.StatusAccepted, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&view)
	})
	s.add("service.post_ms", float64(time.Since(t0).Nanoseconds())/1e6)
	tr.end(id)
	if err != nil {
		return view, fmt.Errorf("submit: %w", err)
	}
	seen.add(view.ID)

	id = tr.start(parent, "service.stream")
	t0 = time.Now()
	var end service.JobEvent
	err = w.call(ctx, client, http.MethodGet, "/v1/jobs/"+view.ID+"/events", nil, http.StatusOK, func(r io.Reader) error {
		return readEnd(r, &end)
	})
	s.add("service.stream_ms", float64(time.Since(t0).Nanoseconds())/1e6)
	tr.end(id)
	if err != nil {
		return view, fmt.Errorf("events: %w", err)
	}

	id = tr.start(parent, "service.fetch")
	t0 = time.Now()
	var size int
	err = w.call(ctx, client, http.MethodGet, "/v1/jobs/"+view.ID, nil, http.StatusOK, func(r io.Reader) error {
		b, err := io.ReadAll(r)
		size = len(b)
		if err != nil {
			return err
		}
		return json.Unmarshal(b, &view)
	})
	s.add("service.fetch_ms", float64(time.Since(t0).Nanoseconds())/1e6)
	tr.end(id)
	if err != nil {
		return view, fmt.Errorf("fetch: %w", err)
	}
	if end.State != view.State {
		return view, fmt.Errorf("stream ended %s but the job is %s", end.State, view.State)
	}
	s.add("service.report_bytes", float64(size))
	s.add("service.queue_wait_ms", float64(view.WaitNs)/1e6)
	s.add("service.run_ms", float64(view.RunNs)/1e6)
	return view, nil
}

// call makes one HTTP request and hands the body to read when the
// status is the expected one.
func (w *serviceWorkload) call(ctx context.Context, client *http.Client, method, path string, body []byte, want int, read func(io.Reader) error) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return read(resp.Body)
}

// readEnd reads a Server-Sent Events stream up to its terminal event.
func readEnd(r io.Reader, end *service.JobEvent) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == service.EventEnd:
			return json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), end)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("stream closed before the end event")
}

// report decodes the run report's results from a job view.
func report(v service.JobView) (map[string]any, error) {
	var rep telemetry.Report
	if err := json.Unmarshal(v.Report, &rep); err != nil {
		return nil, fmt.Errorf("job %s report: %w", v.ID, err)
	}
	return rep.Results, nil
}

// checkDiagnosed is the diagnose-job oracle: the injected fault's
// equivalence class is among the exact dictionary matches.
func checkDiagnosed(v service.JobView) error {
	res, err := report(v)
	if err != nil {
		return err
	}
	if hit, _ := res["hit"].(bool); !hit {
		return fmt.Errorf("job %s: injected fault not among the exact matches", v.ID)
	}
	return nil
}

func (w *serviceWorkload) verify(ctx context.Context, c *checks) {
	// A seeded sample of the first round's reports must match direct
	// library calls on the same inputs.
	r := newRNG(w.seed, 22)
	for i := 0; i < serviceSample; i++ {
		rec := w.first[0][r.intn(len(w.first[0]))]
		res, err := report(rec.view)
		if err == nil {
			err = direct(ctx, rec.req, res)
		}
		c.ok(string(rec.req.Kind)+" report", err)
	}
}

// direct recomputes a job's headline results with library calls and
// compares them with the service's report.
func direct(ctx context.Context, req service.JobRequest, got map[string]any) error {
	o := req.Options
	c, err := circuits.Builtin(req.Builtin, req.N)
	if err != nil {
		return err
	}
	d := core.FromCircuit(c)
	if o.Scan {
		if err := d.ApplyScan(core.StyleLSSD); err != nil {
			return err
		}
	}
	want := map[string]float64{}
	switch req.Kind {
	case service.KindFaultSim:
		v := d.View()
		rg := rand.New(rand.NewSource(o.Seed))
		pats := make([][]bool, o.Patterns)
		for i := range pats {
			pats[i] = make([]bool, len(v.Inputs))
			for j := range pats[i] {
				pats[i][j] = rg.Intn(2) == 1
			}
		}
		res, err := fault.Simulate(ctx, c, d.Faults(), pats, fault.Options{Workers: 1, View: fault.View{Inputs: v.Inputs, Outputs: v.Outputs}})
		if err != nil {
			return err
		}
		want["coverage"], want["detected"] = res.Coverage(), float64(res.NumCaught)
	case service.KindATPG:
		mode, err := compact.ParseMode(o.CompactMode)
		if err != nil {
			return err
		}
		ts, err := d.GenerateContext(ctx, core.GenerateOptions{RandomFirst: o.Random, Seed: o.Seed, CompactMode: mode, Workers: 1})
		if err != nil {
			return err
		}
		want["patterns"], want["coverage"], want["raw_coverage"] = float64(len(ts.Patterns)), ts.Coverage, ts.RawCover
	case service.KindAdvise:
		plan, err := advise.Run(ctx, c, advise.Options{Seed: uint64(o.Seed), Workers: 1})
		if err != nil {
			return err
		}
		want["coverage"], want["steps"], want["overhead_gates"] = plan.Coverage, float64(len(plan.Steps)), float64(plan.OverheadGates)
	case service.KindDiagnose:
		return nil // checked on every job by checkDiagnosed
	}
	for k, v := range want {
		if g, ok := got[k].(float64); !ok || g != v {
			return fmt.Errorf("%s %s(%d) seed %d: report %s = %v, library gives %v", req.Kind, req.Builtin, req.N, o.Seed, k, got[k], v)
		}
	}
	return nil
}

// quality is the median, over the first measured rounds, of each
// round's ATPG pattern total, mean faultsim/ATPG coverage and mean
// advisor overhead, over the round's distinct jobs.
func (w *serviceWorkload) quality() map[string]float64 {
	var pats, cov, over []float64
	for _, recs := range w.first {
		var p, cv, ov float64
		var nCov, nOver int
		for i, rec := range recs {
			if w.templates[i].repeat > 0 {
				continue
			}
			res, err := report(rec.view)
			if err != nil {
				continue
			}
			switch rec.req.Kind {
			case service.KindFaultSim:
				cv += num(res["coverage"])
				nCov++
			case service.KindATPG:
				p += num(res["patterns"])
				cv += num(res["raw_coverage"])
				nCov++
			case service.KindAdvise:
				ov += num(res["overhead"])
				nOver++
			}
		}
		pats = append(pats, p)
		cov = append(cov, 100*cv/float64(max(nCov, 1)))
		over = append(over, 100*ov/float64(max(nOver, 1)))
	}
	return map[string]float64{
		"test_patterns":      median(pats),
		"fault_coverage_pct": median(cov),
		"dft_overhead_pct":   median(over),
	}
}

func num(v any) float64 {
	if f, ok := v.(float64); ok {
		return f
	}
	return math.NaN()
}

func (w *serviceWorkload) counts() map[string]float64 { return nil }

// close drains the job server, stops the HTTP server and waits for its
// goroutines to exit.
func (w *serviceWorkload) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if w.srv != nil {
		_, _ = w.srv.Shutdown(ctx) // drain; the final report is not needed
	}
	if w.hs != nil {
		_ = w.hs.Shutdown(ctx) // no requests are in flight once the clients return
		<-w.served
	}
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hmscs/internal/core"
	"hmscs/internal/dist"
	"hmscs/internal/run"
	"hmscs/internal/serve"
)

// serve-mix shape. The offered load keeps the two compute slots (the
// server's local one and the worker's) a third to half busy. Half the
// requests resubmit a spec whose first job was due at least hitDelay
// earlier, so it has long finished and hits the cache. Every
// listEvery-th request also lists the jobs and scrapes /metrics.
const (
	serveRate  = 14.0 // requests per second
	hitShare   = 0.5
	hitDelay   = 2 * time.Second
	leadIn     = hitDelay + 500*time.Millisecond
	listEvery  = 10
	drainLimit = 30 * time.Second
	// pollAfter is how long a miss may go without a /watch completion
	// before the generator asks GET /jobs/{id} directly (watch delivery
	// is best-effort and drops updates under backlog).
	pollAfter = time.Second
)

// request is one scheduled submission and everything measured about it.
type request struct {
	due  time.Duration
	spec *run.Experiment
	body []byte
	hit  bool
	of   int  // for a hit, the index of the miss it resubmits
	lead bool // part of the untimed lead-in

	id        string
	cached    bool
	sent      time.Time
	submitted time.Time
	notified  time.Time
	fetchAt   time.Time
	done      time.Time
	info      serve.JobInfo
	report    []byte
	err       error
	finished  bool
	polled    bool
}

// serveMix is the open-loop workload: seeded arrivals into an in-process
// serve.Server{Parallelism: 1} on a loopback listener with one
// in-process dist.Worker{Procs: 1} attached. The generator
// holds at most two connections: req (submit, result, list, metrics)
// and watch (GET /watch).
type serveMix struct {
	cfg config
	// segs holds each segment's requests; reqs all of them, in order.
	segs [][]*request
	reqs []*request

	srv   *serve.Server
	hs    *http.Server
	base  string
	wstop context.CancelFunc
	wdone chan struct{}
	wt    *workerTransport
	req   *http.Client
	watch *http.Client
	// warm is the warm-up spec; resubmitting it (a cache hit) makes the
	// server write the first /watch line, which opens the stream.
	warm []byte
}

func newServeMix(cfg config) bench {
	s := &serveMix{cfg: cfg}
	for k := 0; k < segments; k++ {
		reqs := schedule(cfg, k)
		for _, r := range reqs {
			r.of += len(s.reqs)
		}
		s.segs = append(s.segs, reqs)
		s.reqs = append(s.reqs, reqs...)
	}
	return s
}

// schedule builds segment k's requests from the seed. A lead-in of
// misses at the miss rate brings the server to steady state before the
// segment's window opens (the first second after set-up runs markedly
// slower) and gives the first hits something to resubmit. Arrivals are
// jittered slots (see arrivals); hitShare of the window's requests
// resubmit a miss due at least hitDelay earlier.
func schedule(cfg config, k int) []*request {
	rng := rand.New(rand.NewSource(int64(splitmix(cfg.seed, -1-k))))
	seconds := cfg.seconds / segments
	window := time.Duration(seconds * float64(time.Second))
	nLead := int(serveRate*(1-hitShare)*leadIn.Seconds() + 0.5)
	n := max(4, int(serveRate*seconds+0.5))
	dues := append(arrivals(rng, nLead, 0, leadIn), arrivals(rng, n, leadIn, window)...)
	reqs := make([]*request, len(dues))
	measured := make([]int, 0, n)
	for i, d := range dues {
		reqs[i] = &request{due: d, lead: i < nLead}
		if i >= nLead {
			measured = append(measured, i)
		}
	}
	rng.Shuffle(len(measured), func(i, j int) { measured[i], measured[j] = measured[j], measured[i] })
	for _, i := range measured[:int(hitShare*float64(n))] {
		reqs[i].hit = true
	}
	var misses []int
	for i, r := range reqs {
		if !r.hit {
			r.spec = missSpec(cfg.seed, 1000*k+len(misses))
			misses = append(misses, i)
			continue
		}
		k := sort.Search(len(misses), func(m int) bool { return reqs[misses[m]].due > r.due-hitDelay })
		r.of = misses[rng.Intn(k)]
		r.spec = reqs[r.of].spec
	}
	for _, r := range reqs {
		r.body, _ = r.spec.Marshal() // a normalized spec always marshals
	}
	return reqs
}

// arrivals returns n due times over [start, start+span): one in each of
// n equal slots, at a seeded uniform offset within it. Exponential
// (Poisson) gaps crowd several misses together now and then, and on two
// cores the few crowds in a window set the tail: its spread from seed to
// seed stayed between 0.2 and 0.35 of its median. Jittered slots keep
// the rate and the randomness but bound how many requests can coincide.
func arrivals(rng *rand.Rand, n int, start, span time.Duration) []time.Duration {
	dues := make([]time.Duration, n)
	slot := span / time.Duration(n)
	for k := range dues {
		dues[k] = start + time.Duration(k)*slot + time.Duration(rng.Int63n(int64(slot)))
	}
	return dues
}

// missSpec is the m-th distinct spec: half simulate, three in ten sweep
// (both distributable, so their units can go to the worker), two in
// ten netsim (always local). Its seed makes it distinct, so its first
// submission misses the cache.
func missSpec(seed uint64, m int) *run.Experiment {
	var e *run.Experiment
	switch m % 10 {
	case 0, 2, 4, 6, 8:
		e = run.NewExperiment(run.KindSimulate)
		e.System.Case = 1 + m/2%2
		e.System.Arch = []string{"non-blocking", "blocking"}[m/4%2]
		e.Run.Reps = 8
	case 1, 5, 9:
		e = run.NewExperiment(run.KindSweep)
		e.Sweep.Var, e.Sweep.Ints = "clusters", "4,8,16"
		e.Run.Reps = 3
	default:
		e = run.NewExperiment(run.KindNetsim)
		e.Run.Reps = 6
	}
	e.Run.Seed = splitmix(seed, 1000+m)
	return e
}

// workerTransport is the worker's HTTP transport with timing: it
// records lease round trips that granted a unit, completion round
// trips, and the busy time and engine telemetry each completion
// carries.
type workerTransport struct {
	inner http.RoundTripper
	tr    *tracer

	mu         sync.Mutex
	leaseMS    sample
	completeMS sample
	unitMS     sample
	events     int64
	maxPending int64
}

type completion struct {
	BusyNS int64 `json:"busy_ns"`
	Stats  *struct {
		Events     int64 `json:"events"`
		MaxPending int64 `json:"max_pending"`
	} `json:"stats"`
}

func (t *workerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	var c completion
	isComplete := r.URL.Path == "/dist/complete"
	if isComplete && r.GetBody != nil {
		if body, err := r.GetBody(); err == nil {
			json.NewDecoder(body).Decode(&c) //nolint:errcheck // the server reads the same bytes
			body.Close()
		}
	}
	t0 := time.Now()
	resp, err := t.inner.RoundTrip(r)
	if err != nil || (r.URL.Path != "/dist/lease" && !isComplete) {
		return resp, err
	}
	raw, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	end := time.Now()
	if rerr != nil {
		return resp, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case isComplete:
		t.completeMS = append(t.completeMS, ms(end.Sub(t0)))
		t.tr.record(0, 0, "dist.complete", t0, end)
		if c.Stats != nil {
			t.unitMS = append(t.unitMS, float64(c.BusyNS)/1e6)
			t.events += c.Stats.Events
			t.maxPending = max(t.maxPending, c.Stats.MaxPending)
		}
	case bytes.Contains(raw, []byte(`"leases":[{`)):
		t.leaseMS = append(t.leaseMS, ms(end.Sub(t0)))
		t.tr.record(0, 0, "dist.lease", t0, end)
	}
	return resp, nil
}

func oneConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// setUp starts the server on a loopback listener, attaches the worker,
// waits until it is live and runs one warm-up job through the request
// connection.
func (s *serveMix) setUp(ctx context.Context) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = serve.New(serve.Config{Parallelism: 1})
	s.hs = &http.Server{Handler: s.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go s.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed at tearDown
	s.base = "http://" + ln.Addr().String()
	s.req, s.watch = oneConnClient(), oneConnClient()
	s.wt = &workerTransport{inner: &http.Transport{}}
	wctx, stop := context.WithCancel(ctx)
	s.wstop, s.wdone = stop, make(chan struct{})
	wk := &dist.Worker{Connect: s.base, Procs: 1, Name: "perfbench", HC: &http.Client{Transport: s.wt}}
	go func() {
		defer close(s.wdone)
		wk.Run(wctx) //nolint:errcheck // ends with the context at tearDown
	}()
	for s.srv.Dist().Live() == 0 {
		select {
		case <-time.After(time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	warm := run.NewExperiment(run.KindSimulate)
	warm.Run.Seed, warm.Run.Reps = splitmix(s.cfg.seed, -2), 4
	if s.warm, err = warm.Marshal(); err != nil {
		return err
	}
	var info serve.JobInfo
	if err := s.getJSON(ctx, http.MethodPost, "/jobs", s.warm, &info); err != nil {
		return err
	}
	for !info.Status.Terminal() {
		time.Sleep(2 * time.Millisecond)
		if err := s.getJSON(ctx, http.MethodGet, "/jobs/"+info.ID, nil, &info); err != nil {
			return err
		}
	}
	if info.Status != serve.StatusDone {
		return fmt.Errorf("warm-up job %s: %s %s", info.ID, info.Status, info.Error)
	}
	_, err = s.call(ctx, s.req, http.MethodGet, "/jobs/"+info.ID+"/result", nil)
	return err
}

// tearDown stops the worker, the server and its listener, and waits
// for each to end.
func (s *serveMix) tearDown() {
	if s.srv == nil {
		return
	}
	s.wstop()
	s.srv.Close() // ends the worker's long-poll lease
	<-s.wdone
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if s.hs.Shutdown(ctx) != nil {
		s.hs.Close()
	}
	s.req.CloseIdleConnections()
	s.watch.CloseIdleConnections()
	s.srv = nil
}

// call does one HTTP request and returns the body of a 200/202 answer.
func (s *serveMix) call(ctx context.Context, hc *http.Client, method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(raw)))
	}
	return raw, nil
}

func (s *serveMix) getJSON(ctx context.Context, method, path string, body []byte, v any) error {
	raw, err := s.call(ctx, s.req, method, path, body)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

// scrape reads the /metrics counters the workload reports on.
func (s *serveMix) scrape(ctx context.Context) (map[string]float64, error) {
	raw, err := s.call(ctx, s.req, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		if name, v, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				out[name] = f
			}
		}
	}
	return out, nil
}

// snapshot is the server's counters at one instant: the /metrics
// families, the coordinator's unit accounting, and the fleet's busy
// time and finished units from GET /dist/workers.
type snapshot struct {
	metrics map[string]float64
	dist    dist.Stats
	busy    float64
	units   int64
}

func (s *serveMix) snapshot(ctx context.Context) (snapshot, error) {
	var sn snapshot
	var err error
	if sn.metrics, err = s.scrape(ctx); err != nil {
		return sn, err
	}
	sn.dist = s.srv.Dist().Stats()
	var ws []dist.WorkerInfo
	if err := s.getJSON(ctx, http.MethodGet, "/dist/workers", nil, &ws); err != nil {
		return sn, err
	}
	for _, w := range ws {
		sn.busy += w.BusySeconds
		sn.units += w.UnitsDone
	}
	return sn, nil
}

// watchSeen is a terminal snapshot read on /watch and when it arrived.
type watchSeen struct {
	info serve.JobInfo
	at   time.Time
}

// gen is one segment's generator state.
type gen struct {
	s     *serveMix
	tr    *tracer
	reqs  []*request
	start time.Time

	mu       sync.Mutex
	pending  map[string]int       // miss job ID → request index
	early    map[string]watchSeen // completions seen before their submit returned
	left     int
	fetch    chan int
	allDone  chan struct{}
	submitMS sample
	resultMS sample
	listMS   sample
	lateMS   sample
	retained int
	polls    int
	// s0 is the snapshot taken when the window opens, after the lead-in,
	// and s1 the one after the last report.
	s0, s1  snapshot
	openErr error
	// offset is the index of the segment's first request in s.reqs.
	offset int
	wall   time.Duration
	heapMB float64
	// The worker transport's samples over the segment.
	leaseMS, completeMS, unitMS sample
	workerEvents, maxPending    int64
}

// segments is how many fresh server instances one window is split
// across. The window's figures pool the segments' requests, so the
// scheduling phase one instance falls into (which units reach the
// worker, which jobs overlap) does not set them: single-instance
// windows of the same length spread about twice as wide.
const segments = 3

// measure runs one window as segments back-to-back segments, each on a
// fresh server and worker (the first on the one setUp started), and
// pools what they measured.
func (s *serveMix) measure(ctx context.Context, d time.Duration, tr *tracer) (*window, error) {
	var gens []*gen
	offset := 0
	for k, reqs := range s.segs {
		if k > 0 {
			s.tearDown()
			if err := s.setUp(ctx); err != nil {
				return nil, fmt.Errorf("set-up of segment %d: %w", k, err)
			}
		}
		g, err := s.segment(ctx, reqs, offset, d/segments, tr)
		if err != nil {
			return nil, err
		}
		gens = append(gens, g)
		offset += len(reqs)
	}
	w := &window{tracer: tr, heapMB: gens[len(gens)-1].heapMB}
	var queue, exec, notify, netExec, submit, result, list, late, leaseRTT, completeRTT, unitMS sample
	var events, workerEvents, maxPending int64
	var hits, misses, remote, local, poolUnits, poolBusy, reassigned, duplicate, busyS, unitsDone float64
	byKind := make(map[run.Kind]sample)
	for _, g := range gens {
		w.attempted += len(g.reqs)
		w.wall += g.wall
		m0, m1, d0, d1 := g.s0.metrics, g.s1.metrics, g.s0.dist, g.s1.dist
		delta := func(name string) float64 { return m1[name] - m0[name] }
		events += int64(delta("hmscs_sim_events_total"))
		hits += delta("hmscs_cache_hits_total")
		misses += delta("hmscs_cache_misses_total")
		poolUnits += delta("hmscs_pool_units_total")
		poolBusy += delta("hmscs_pool_busy_seconds_total")
		remote += float64(d1.Completed - d0.Completed)
		local += float64(d1.Local - d0.Local)
		reassigned += float64(d1.Reassigned - d0.Reassigned)
		duplicate += float64(d1.Duplicate - d0.Duplicate)
		busyS += g.s1.busy - g.s0.busy
		unitsDone += float64(g.s1.units - g.s0.units)
		submit, result, list, late = append(submit, g.submitMS...), append(result, g.resultMS...), append(list, g.listMS...), append(late, g.lateMS...)
		leaseRTT, completeRTT, unitMS = append(leaseRTT, g.leaseMS...), append(completeRTT, g.completeMS...), append(unitMS, g.unitMS...)
		workerEvents += g.workerEvents
		maxPending = max(maxPending, g.maxPending)
		if g.polls > 0 {
			w.notes = append(w.notes, fmt.Sprintf("%d completions were read with GET /jobs/{id} after /watch missed them", g.polls))
		}
		for j, r := range g.reqs {
			i := g.offset + j
			switch {
			case r.err != nil:
				w.failed++
				w.notes = append(w.notes, fmt.Sprintf("request %d: %v", i, r.err))
				continue
			case !r.finished:
				w.failed++
				w.notes = append(w.notes, fmt.Sprintf("request %d unfinished at the end of the window", i))
				continue
			}
			if r.cached != r.hit {
				w.wrong++
				w.notes = append(w.notes, fmt.Sprintf("request %d planned hit=%v but JobInfo.Cached=%v", i, r.hit, r.cached))
			}
			if r.lead {
				continue
			}
			w.finished++
			lat := ms(r.done.Sub(g.start.Add(r.due)))
			if r.hit {
				w.hits = append(w.hits, lat)
				continue
			}
			w.jobs = append(w.jobs, lat)
			byKind[r.spec.Kind] = append(byKind[r.spec.Kind], lat)
			if res := r.info.Resources; res != nil && res.Shards > 1 {
				return nil, fmt.Errorf("request %d ran with %d shards; the benchmark must stay sharding-neutral", i, res.Shards)
			}
			if r.info.StartedAt != nil && r.info.FinishedAt != nil {
				queue = append(queue, ms(r.info.StartedAt.Sub(r.info.CreatedAt)))
				e := ms(r.info.FinishedAt.Sub(*r.info.StartedAt))
				exec = append(exec, e)
				if r.spec.Kind == run.KindNetsim {
					netExec = append(netExec, e)
				}
				if !r.notified.IsZero() {
					notify = append(notify, ms(r.notified.Sub(*r.info.FinishedAt)))
				}
			}
		}
	}
	w.events = events
	for _, k := range []run.Kind{run.KindSimulate, run.KindSweep, run.KindNetsim} {
		w.notes = append(w.notes, fmt.Sprintf("miss latency of %s jobs: p50 %.3f ms, n=%d", k, byKind[k].p50(), len(byKind[k])))
	}
	if tr == nil {
		return w, nil
	}
	w.layer = map[string]metric{
		"serve.submit_ms_p50":      {submit.p50(), "ms"},
		"serve.queue_ms_p50":       {queue.p50(), "ms"},
		"serve.queue_ms_tail":      {tailValue(queue), "ms"},
		"serve.exec_ms_p50":        {exec.p50(), "ms"},
		"serve.notify_ms_p50":      {notify.p50(), "ms"},
		"serve.result_ms_p50":      {result.p50(), "ms"},
		"serve.list_ms_p50":        {list.p50(), "ms"},
		"serve.retained_jobs":      {float64(gens[len(gens)-1].retained), "count"},
		"serve.cache_hit_frac":     {hits / (hits + misses), "ratio"},
		"dist.remote_frac":         {remote / (remote + local), "ratio"},
		"dist.lease_rtt_ms_p50":    {leaseRTT.p50(), "ms"},
		"dist.complete_rtt_ms_p50": {completeRTT.p50(), "ms"},
		"dist.worker_ms_per_unit":  {busyS * 1e3 / max(unitsDone, 1), "ms"},
		"dist.reassigned":          {reassigned, "count"},
		"dist.duplicate":           {duplicate, "count"},
		"netsim.exec_ms_p50":       {netExec.p50(), "ms"},
		"bench.gen_late_ms_max":    {late.max(), "ms"},
		// The worker's units are the engine runs visible from outside
		// the server; local units run inside it.
		"sim.units":             {float64(len(unitMS)), "count"},
		"sim.unit_ms_p50":       {unitMS.p50(), "ms"},
		"sim.unit_ms_tail":      {tailValue(unitMS), "ms"},
		"sim.events_per_busy_s": {float64(workerEvents) / (unitMS.sum() / 1e3), "1/s"},
		"sim.max_pending":       {float64(maxPending), "count"},
		"par.units":             {poolUnits / float64(max(len(w.jobs), 1)), "count"},
		"par.busy_frac":         {poolBusy / w.wall.Seconds(), "ratio"},
	}
	w.notes = append(w.notes, tailNote("serve.queue_ms_tail", queue), tailNote("sim.unit_ms_tail", unitMS))
	return w, nil
}

// segment runs one segment on the current server: the sender submits
// each request at its due time, the watcher turns /watch completions
// into result fetches, and the fetcher collects reports; the segment
// ends when every request has its report (or drainLimit after the last
// due time).
func (s *serveMix) segment(ctx context.Context, reqs []*request, offset int, d time.Duration, tr *tracer) (*gen, error) {
	for _, r := range reqs {
		*r = request{due: r.due, spec: r.spec, body: r.body, hit: r.hit, of: r.of, lead: r.lead}
	}
	g := &gen{s: s, tr: tr, reqs: reqs, offset: offset, pending: make(map[string]int),
		early: make(map[string]watchSeen),
		left:  len(reqs), fetch: make(chan int, len(reqs)), allDone: make(chan struct{})}
	wctx, stopWatch := context.WithCancel(ctx)
	watchUp := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { defer wg.Done(); g.watchLoop(wctx, watchUp) }()
	if err := s.openWatch(ctx, watchUp); err != nil {
		stopWatch()
		wg.Wait()
		return nil, err
	}
	go func() { defer wg.Done(); g.fetchLoop(wctx) }()
	go func() { defer wg.Done(); g.pollLoop(wctx) }()

	g.start = time.Now()
	g.send(wctx)
	select {
	case <-g.allDone:
	case <-time.After(time.Until(g.start.Add(leadIn + d + drainLimit))):
	}
	stopWatch()
	wg.Wait()
	if g.openErr != nil {
		return nil, g.openErr
	}
	open := g.start.Add(leadIn)
	last := open
	for _, r := range g.reqs {
		if !r.lead && r.finished && r.done.After(last) {
			last = r.done
		}
	}
	g.wall = last.Sub(open)
	g.heapMB = heapMiB()
	var err error
	if g.s1, err = s.snapshot(ctx); err != nil {
		return nil, err
	}
	if err := g.retain(ctx); err != nil {
		return nil, err
	}
	wt := s.wt
	wt.mu.Lock()
	g.leaseMS, g.completeMS, g.unitMS, g.workerEvents, g.maxPending = wt.leaseMS, wt.completeMS, wt.unitMS, wt.events, wt.maxPending
	wt.mu.Unlock()
	return g, nil
}

// openWatch waits until the watch stream is open. The server sends the
// response header with the first update, so until then the warm-up spec
// is resubmitted (a cache hit, which adds one job) every few ms.
func (s *serveMix) openWatch(ctx context.Context, up <-chan error) error {
	for {
		select {
		case err := <-up:
			return err
		case <-time.After(5 * time.Millisecond):
			if _, err := s.call(ctx, s.req, http.MethodPost, "/jobs", s.warm); err != nil {
				return err
			}
		}
	}
}

// send submits every request at its due time on the request connection;
// every listEvery-th request also lists the jobs and scrapes /metrics.
func (g *gen) send(ctx context.Context) {
	opened := false
	for i, r := range g.reqs {
		due := g.start.Add(r.due)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if !r.lead && !opened {
			opened = true
			g.open(ctx)
		}
		r.sent = time.Now()
		if !r.lead {
			g.lateMS = append(g.lateMS, ms(r.sent.Sub(due)))
		}
		var info serve.JobInfo
		raw, err := g.s.call(ctx, g.s.req, http.MethodPost, "/jobs", r.body)
		if err == nil {
			err = json.Unmarshal(raw, &info)
		}
		r.submitted = time.Now()
		if !r.lead {
			g.submitMS = append(g.submitMS, ms(r.submitted.Sub(r.sent)))
			g.tr.record(g.offset+i+1, 0, "bench.gen_late", due, r.sent)
			g.tr.record(g.offset+i+1, 0, "serve.submit", r.sent, r.submitted)
		}
		g.mu.Lock()
		switch {
		case err != nil:
			r.err = err
			g.finishLocked()
		case info.Cached:
			r.id, r.cached, r.info = info.ID, true, info
			g.fetch <- i
		default:
			r.id = info.ID
			if early, ok := g.early[info.ID]; ok {
				g.completeLocked(i, early.info, early.at)
			} else {
				g.pending[info.ID] = i
			}
		}
		g.mu.Unlock()
		if (i+1)%listEvery == 0 {
			t0 := time.Now()
			var infos []serve.JobInfo
			if err := g.s.getJSON(ctx, http.MethodGet, "/jobs", nil, &infos); err == nil && !r.lead {
				g.listMS = append(g.listMS, ms(time.Since(t0)))
			}
			g.tr.record(0, 0, "serve.list", t0, time.Now())
			t0 = time.Now()
			g.s.scrape(ctx) //nolint:errcheck // load only; the window's scrapes are checked
			g.tr.record(0, 0, "serve.metrics", t0, time.Now())
		}
	}
}

// open starts the window's accounting: the counter snapshot and fresh
// worker-side samples.
func (g *gen) open(ctx context.Context) {
	g.s0, g.openErr = g.s.snapshot(ctx)
	wt := g.s.wt
	wt.mu.Lock()
	wt.tr, wt.leaseMS, wt.completeMS, wt.unitMS, wt.events, wt.maxPending = g.tr, nil, nil, nil, 0, 0
	wt.mu.Unlock()
}

// finishLocked counts one request as settled.
func (g *gen) finishLocked() {
	g.left--
	if g.left == 0 {
		close(g.allDone)
	}
}

// completeLocked hands a terminal miss to the fetcher, or settles it
// when it did not succeed.
func (g *gen) completeLocked(i int, info serve.JobInfo, at time.Time) {
	r := g.reqs[i]
	r.info, r.notified = info, at
	if info.Status != serve.StatusDone {
		r.err = fmt.Errorf("job %s %s: %s", info.ID, info.Status, info.Error)
		g.finishLocked()
		return
	}
	g.fetch <- i
}

// watchLoop holds GET /watch open and routes terminal snapshots of miss
// jobs to the fetcher.
func (g *gen) watchLoop(ctx context.Context, up chan<- error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.s.base+"/watch", nil)
	if err != nil {
		up <- err
		return
	}
	resp, err := g.s.watch.Do(req)
	if err != nil {
		up <- err
		return
	}
	defer resp.Body.Close()
	up <- nil
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		at := time.Now()
		var info serve.JobInfo
		if json.Unmarshal(sc.Bytes(), &info) != nil || info.Cached || !info.Status.Terminal() {
			continue
		}
		g.mu.Lock()
		if i, ok := g.pending[info.ID]; ok {
			delete(g.pending, info.ID)
			g.completeLocked(i, info, at)
		} else if _, seen := g.early[info.ID]; !seen {
			g.early[info.ID] = watchSeen{info, at}
		}
		g.mu.Unlock()
	}
}

// pollLoop is the fallback for dropped watch updates: a miss that has
// waited pollAfter without a completion is read with GET /jobs/{id}.
func (g *gen) pollLoop(ctx context.Context) {
	tick := time.NewTicker(pollAfter / 4)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		g.mu.Lock()
		var due []int
		for _, i := range g.pending {
			if r := g.reqs[i]; !r.polled && time.Since(r.submitted) > pollAfter {
				r.polled = true
				due = append(due, i)
			}
		}
		g.mu.Unlock()
		for _, i := range due {
			r := g.reqs[i]
			var info serve.JobInfo
			if err := g.s.getJSON(ctx, http.MethodGet, "/jobs/"+r.id, nil, &info); err != nil {
				continue
			}
			g.mu.Lock()
			r.polled = false
			if _, ok := g.pending[r.id]; ok && info.Status.Terminal() {
				delete(g.pending, r.id)
				g.polls++
				g.completeLocked(i, info, time.Time{})
			}
			g.mu.Unlock()
		}
	}
}

// fetchLoop reads each settled job's report on the request connection.
func (g *gen) fetchLoop(ctx context.Context) {
	for {
		var i int
		select {
		case i = <-g.fetch:
		case <-ctx.Done():
			return
		}
		r := g.reqs[i]
		t0 := time.Now()
		raw, err := g.s.call(ctx, g.s.req, http.MethodGet, "/jobs/"+r.id+"/result", nil)
		end := time.Now()
		g.mu.Lock()
		if !r.lead {
			g.resultMS = append(g.resultMS, ms(end.Sub(t0)))
		}
		r.fetchAt, r.done, r.report, r.err = t0, end, raw, err
		r.finished = err == nil
		g.finishLocked()
		g.mu.Unlock()
		if g.tr != nil && !r.lead {
			g.traceRequest(i, r)
		}
	}
}

// traceRequest records one request's server-side spans from its JobInfo
// timestamps and the client-side result fetch, under a root span from
// due time to report in hand.
func (g *gen) traceRequest(i int, r *request) {
	job := g.offset + i + 1
	root := g.tr.record(job, 0, "serve.request", g.start.Add(r.due), r.done)
	if r.info.StartedAt != nil && r.info.FinishedAt != nil {
		g.tr.record(job, root, "serve.queue", r.info.CreatedAt, *r.info.StartedAt)
		g.tr.record(job, root, "serve.exec", *r.info.StartedAt, *r.info.FinishedAt)
		if !r.notified.IsZero() {
			g.tr.record(job, root, "serve.notify", *r.info.FinishedAt, r.notified)
		}
	}
	g.tr.record(job, root, "serve.result", r.fetchAt, r.done)
}

// retain reads how many jobs the server still lists.
func (g *gen) retain(ctx context.Context) error {
	var infos []serve.JobInfo
	if err := g.s.getJSON(ctx, http.MethodGet, "/jobs", nil, &infos); err != nil {
		return err
	}
	g.retained = len(infos)
	return nil
}

// check computes a local Parallelism-1 reference for every miss (on
// nproc goroutines, outside the window) and compares: each miss with its
// reference, each hit with its miss.
func (s *serveMix) check(ctx context.Context, w *window) error {
	var misses []int
	for i, r := range s.reqs {
		if !r.hit && r.finished {
			misses = append(misses, i)
		}
	}
	refs := make([][]byte, len(s.reqs))
	var mu sync.Mutex
	var firstErr error
	idx := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < s.cfg.nproc; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				var md bytes.Buffer
				_, err := run.Run(ctx, s.reqs[i].spec, run.Options{Parallelism: 1, Sinks: []run.Sink{run.NewMarkdownSink(&md)}})
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference run of request %d: %w", i, err)
				}
				refs[i] = md.Bytes()
				mu.Unlock()
			}
		}()
	}
	for _, i := range misses {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	hits, checked := 0, 0
	for i, r := range s.reqs {
		if !r.finished {
			continue
		}
		checked++
		want := refs[i]
		if r.hit {
			want = s.reqs[r.of].report
			hits++
		} else if s.cfg.corrupt && len(want) > 0 {
			want[len(want)/2] ^= 0x20
		}
		if want == nil || !bytes.Equal(r.report, want) {
			w.wrong++
			w.notes = append(w.notes, fmt.Sprintf("request %d (hit=%v) report differs from its reference", i, r.hit))
		}
	}
	w.checks = append(w.checks,
		fmt.Sprintf("%d misses byte-equal to local Parallelism-1 references", len(misses)),
		fmt.Sprintf("%d hits byte-equal to their misses", hits),
		fmt.Sprintf("%d JobInfo.Cached flags equal to the planned hit/miss class", checked))
	return nil
}

// probe evaluates the model on the system configurations of the mix's
// simulate specs.
func (s *serveMix) probe(_ context.Context, layer map[string]metric) error {
	seen := make(map[string]bool)
	var cfgs []*core.Config
	var scv float64
	for _, r := range s.reqs {
		e := r.spec
		if e.Kind != run.KindSimulate || seen[e.System.Arch+strconv.Itoa(e.System.Case)] {
			continue
		}
		seen[e.System.Arch+strconv.Itoa(e.System.Case)] = true
		c, err := e.System.Build()
		if err != nil {
			return err
		}
		arr, err := e.Workload.BuildArrival()
		if err != nil {
			return err
		}
		cfgs, scv = append(cfgs, c), arr.SCV()
	}
	if len(cfgs) == 0 {
		return errors.New("serve-mix schedule holds no simulate spec")
	}
	return analyticProbe(cfgs, scv, layer)
}

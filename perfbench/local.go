package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"hmscs/internal/core"
	"hmscs/internal/par"
	"hmscs/internal/progress"
	"hmscs/internal/run"
	"hmscs/internal/sim"
)

// planSpecs is how many plan specs plan-screen cycles through.
const planSpecs = 8

// splitmix derives the k-th sub-seed of a workload seed, so every spec
// is a pure function of the benchmark's --seed.
func splitmix(seed uint64, k int) uint64 {
	z := seed + uint64(k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// localBench is a closed loop with one caller: run.Run on the
// workload's specs in turn, at Parallelism = nproc, each report compared
// with the first report of the same spec and, after the window, with a
// Parallelism-1 reference.
type localBench struct {
	cfg   config
	specs []*run.Experiment
	// golden, when set, is the file the first spec's reference must equal.
	golden string
	// configs are the model inputs the analytic probe evaluates.
	configs func() ([]*core.Config, float64, error)
	// first holds each spec's first report of the current window, and
	// count how many of the window's reports matched it.
	first [][]byte
	count []int
}

// newSimBatch cycles through simulate specs of the paper's four
// platforms (Case 1/2 × non-blocking/blocking) at C=16, four seeds each,
// with eight replications per pool worker: every job fills the pool,
// and at about 90 ms a job's tail moves little with a host hiccup.
func newSimBatch(cfg config) *localBench {
	b := &localBench{cfg: cfg}
	k := 0
	for s := 0; s < 4; s++ {
		for _, c := range []int{1, 2} {
			for _, arch := range []string{"non-blocking", "blocking"} {
				e := run.NewExperiment(run.KindSimulate)
				e.System.Case, e.System.Clusters, e.System.Arch = c, 16, arch
				e.Run.Seed = splitmix(cfg.seed, k)
				e.Run.Reps = 8 * cfg.nproc
				b.specs = append(b.specs, e)
				k++
			}
		}
	}
	b.configs = func() ([]*core.Config, float64, error) {
		var cfgs []*core.Config
		for _, e := range b.specs[:4] {
			c, err := e.System.Build()
			if err != nil {
				return nil, 0, err
			}
			cfgs = append(cfgs, c)
		}
		arr, err := b.specs[0].Workload.BuildArrival()
		if err != nil {
			return nil, 0, err
		}
		return cfgs, arr.SCV(), nil
	}
	return b
}

// newPlanScreen is the spec form of the Makefile's golden plan command:
// the default space, SLO 2 ms, at least 64 nodes, λ=100, top 2. The
// first spec's run.seed is the benchmark seed, so at the goldens' seed
// its report must equal testdata/golden-plan.txt; the other specs
// derive theirs from it. How many replications verification takes
// depends on run.seed, so cycling through planSpecs seeds keeps the
// simulated share of a run from swinging with the seed.
func newPlanScreen(cfg config) *localBench {
	b := &localBench{cfg: cfg}
	for k := 0; k < planSpecs; k++ {
		e := run.NewExperiment(run.KindPlan)
		e.Plan.SLOLatencyMs, e.Plan.MinNodes, e.Plan.Lambda, e.Plan.Top = 2, 64, 100, 2
		e.Run.Seed, e.Run.Messages = cfg.seed, 2000
		if k > 0 {
			e.Run.Seed = splitmix(cfg.seed, k)
		}
		e.Precision.MaxReps = 6
		b.specs = append(b.specs, e)
	}
	e := b.specs[0]
	if cfg.seed == 12345 {
		b.golden = "testdata/golden-plan.txt"
	}
	b.configs = func() ([]*core.Config, float64, error) {
		cands, scv, err := planCandidates(e)
		if err != nil {
			return nil, 0, err
		}
		cfgs := make([]*core.Config, len(cands))
		for i, c := range cands {
			cfgs[i] = c.Cfg
		}
		return cfgs, scv, nil
	}
	return b
}

// setUp checks the sharding-neutral invariant on every spec and runs the
// untimed warm-up job.
func (b *localBench) setUp(ctx context.Context) error {
	for _, e := range b.specs {
		if e.Run.Shards != 0 {
			return fmt.Errorf("workload spec sets run.shards=%d; the benchmark must stay sharding-neutral", e.Run.Shards)
		}
	}
	var md bytes.Buffer
	_, err := run.Run(ctx, b.specs[0], run.Options{
		Parallelism: b.cfg.nproc,
		Sinks:       []run.Sink{run.NewMarkdownSink(&md), run.NewJSONLSink(io.Discard)},
	})
	return err
}

func (b *localBench) tearDown() {}

// jobTrace is the traced window's view of one job: its unit and sink
// durations, the progress events it emitted, and the spans to nest
// them under.
type jobTrace struct {
	tr   *tracer
	job  int
	root int

	mu         sync.Mutex
	units      sample
	unitSpans  []int
	sinkSpans  []int
	sinkMS     float64
	events     int
	firstEv    time.Time
	lastEv     time.Time
	runStarted time.Time
}

// RunUnit is the timing sim.UnitRunner: the reference semantics,
// sim.Run, inside a span.
func (j *jobTrace) RunUnit(_ context.Context, _, _ int, cfg *core.Config, opts sim.Options) (*sim.Result, error) {
	id := j.tr.begin(j.job, j.root, "sim.unit")
	t0 := time.Now()
	res, err := sim.Run(cfg, opts)
	d := time.Since(t0)
	j.tr.end(id)
	j.mu.Lock()
	j.units = append(j.units, ms(d))
	j.unitSpans = append(j.unitSpans, id)
	j.mu.Unlock()
	return res, err
}

func (j *jobTrace) progress(progress.Event) {
	now := time.Now()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.events == 0 {
		j.firstEv = now
	}
	j.lastEv = now
	j.events++
}

// timedSink wraps a sink with a span around each call.
type timedSink struct {
	inner run.Sink
	name  string
	j     *jobTrace
}

func (s *timedSink) timed(f func() error) error {
	id := s.j.tr.begin(s.j.job, s.j.root, s.name)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	s.j.tr.end(id)
	s.j.mu.Lock()
	s.j.sinkMS += ms(d)
	s.j.sinkSpans = append(s.j.sinkSpans, id)
	s.j.mu.Unlock()
	return err
}

func (s *timedSink) Event(ev progress.Event) error {
	return s.timed(func() error { return s.inner.Event(ev) })
}

func (s *timedSink) Result(o *run.Outcome) error {
	return s.timed(func() error { return s.inner.Result(o) })
}

// measure runs jobs back to back until the window closes. Each report
// is compared with the first report of its spec in this window; check
// later compares those with the references.
func (b *localBench) measure(ctx context.Context, d time.Duration, tr *tracer) (*window, error) {
	w := &window{tracer: tr}
	b.first = make([][]byte, len(b.specs))
	b.count = make([]int, len(b.specs))
	lay := &localLayers{}
	par0 := par.Stats()
	start := time.Now()
	deadline := start.Add(d)
	for n := 0; time.Now().Before(deadline); n++ {
		i := n % len(b.specs)
		var md bytes.Buffer
		sinks := []run.Sink{run.NewMarkdownSink(&md), run.NewJSONLSink(io.Discard)}
		opts := run.Options{Parallelism: b.cfg.nproc}
		var jt *jobTrace
		if tr != nil {
			jt = &jobTrace{tr: tr, job: n + 1}
			jt.root = tr.begin(jt.job, 0, "run.Run")
			sinks = []run.Sink{&timedSink{sinks[0], "sink.markdown", jt}, &timedSink{sinks[1], "sink.jsonl", jt}}
			opts.Units = func(string) sim.UnitRunner { return jt }
			opts.Progress = jt.progress
		}
		opts.Sinks = sinks
		w.attempted++
		t0 := time.Now()
		out, err := run.Run(ctx, b.specs[i], opts)
		elapsed := time.Since(t0)
		if jt != nil {
			tr.end(jt.root)
			jt.runStarted = t0
		}
		if err != nil {
			w.failed++
			w.notes = append(w.notes, fmt.Sprintf("job %d failed: %v", n+1, err))
			continue
		}
		if sh := out.Telemetry.Sim.Shards; sh != 1 {
			return nil, fmt.Errorf("job %d ran with %d shards; the benchmark must stay sharding-neutral", n+1, sh)
		}
		w.finished++
		w.jobs = append(w.jobs, ms(elapsed))
		w.events += out.Telemetry.Sim.Events
		switch {
		case b.first[i] == nil:
			b.first[i] = md.Bytes()
			b.count[i]++
		case bytes.Equal(md.Bytes(), b.first[i]):
			b.count[i]++
		default:
			w.wrong++
			w.notes = append(w.notes, fmt.Sprintf("job %d report differs from the first report of spec %d", n+1, i))
		}
		if jt != nil {
			lay.add(jt, out)
		}
	}
	w.wall = time.Since(start)
	w.heapMB = heapMiB()
	if tr != nil {
		dp := par.Stats()
		w.layer = lay.metrics(w, dp.Units-par0.Units, dp.Busy-par0.Busy, b.cfg.nproc, b.specs[0].Kind == run.KindPlan)
	}
	return w, nil
}

// check runs every spec once at Parallelism 1 and compares the window's
// reports with those references (and, for the plan at the goldens'
// seed, the reference with the committed golden).
func (b *localBench) check(ctx context.Context, w *window) error {
	var p1 sample
	for i, e := range b.specs {
		var md bytes.Buffer
		t0 := time.Now()
		if _, err := run.Run(ctx, e, run.Options{Parallelism: 1, Sinks: []run.Sink{run.NewMarkdownSink(&md)}}); err != nil {
			return fmt.Errorf("reference run of spec %d: %w", i, err)
		}
		p1 = append(p1, ms(time.Since(t0)))
		ref := md.Bytes()
		if b.cfg.corrupt {
			ref[len(ref)/2] ^= 0x20
		}
		ok := b.first[i] == nil || bytes.Equal(b.first[i], ref)
		if !ok {
			w.notes = append(w.notes, fmt.Sprintf("%d reports of spec %d differ from the Parallelism-1 reference", b.count[i], i))
		}
		if b.golden != "" && i == 0 {
			want, err := os.ReadFile(b.golden)
			if err != nil {
				return fmt.Errorf("reading the golden: %w", err)
			}
			if !bytes.Equal(ref, want) {
				ok = false
				w.notes = append(w.notes, fmt.Sprintf("reference report differs from %s", b.golden))
			}
			w.checks = append(w.checks, "plan reference == "+b.golden)
		}
		if !ok {
			w.wrong += b.count[i]
		}
	}
	w.checks = append(w.checks, fmt.Sprintf("%d reports byte-equal to %d Parallelism-1 references", w.finished, len(b.specs)))
	if w.layer != nil {
		w.layer["par.speedup_vs_p1"] = metric{p1.p50() / w.jobs.p50(), "x"}
	}
	return nil
}

func (b *localBench) probe(_ context.Context, layer map[string]metric) error {
	cfgs, scv, err := b.configs()
	if err != nil {
		return err
	}
	return analyticProbe(cfgs, scv, layer)
}

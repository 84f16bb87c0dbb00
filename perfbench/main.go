// Command perfbench is the repository's end-to-end benchmark. It drives
// the model, the simulator, the server and the worker fleet through
// their public entry points only (run.Run and its Options hooks, the
// plan and analytic calls, serve.Server over loopback HTTP, dist.Worker)
// and checks every report it measures byte for byte.
//
//	go run . --workload sim-batch --seed 12345 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end set, with --trace 1 the per-layer set (README.md lists
// both, with the layer → end-to-end mapping). Every line above it is
// for people: the environment, every metric the workload measures with
// its unit, the tail percentiles used, and the correctness checks run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eNames and layerNames are the metrics the final JSON line carries:
// the ones every workload measures (README.md explains why the
// workload-specific ones are printed above it instead).
var (
	e2eNames = []string{"setup_s", "job_ms_p50", "job_ms_tail", "jobs_per_s", "sim_events_per_s", "heap_mb"}

	layerNames = []string{
		"analytic.candidates", "analytic.iterations", "analytic.us_per_candidate_p50",
		"analytic.us_per_candidate_max", "analytic.allocs_per_candidate",
		"sim.units", "sim.unit_ms_p50", "sim.unit_ms_tail", "sim.events_per_busy_s", "sim.max_pending",
		"par.units", "par.busy_frac", "bench.trace_overhead_frac",
	}
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	nproc    int
	// corrupt flips one byte of every reference before comparison; the
	// self-test uses it to prove a wrong report is caught.
	corrupt bool
	// outDir receives the traced run's span file.
	outDir string
}

// bench is one workload. setUp builds the inputs, starts whatever the
// workload needs and runs one untimed warm-up job; measure runs one
// timed window; check computes the references outside every window and
// marks the jobs whose reports differ.
type bench interface {
	setUp(ctx context.Context) error
	tearDown()
	measure(ctx context.Context, d time.Duration, tr *tracer) (*window, error)
	check(ctx context.Context, w *window) error
	// probe measures the layer metrics that need calls of their own
	// (the analytic model on this workload's configurations).
	probe(ctx context.Context, layer map[string]metric) error
}

// window is what one timed window measured.
type window struct {
	wall      time.Duration
	jobs      sample // latency of the workload's jobs (serve-mix: misses), ms
	hits      sample // serve-mix cache hits, ms
	attempted int
	failed    int
	// wrong counts failures found by the reference checks.
	wrong    int
	checks   []string
	events   int64
	heapMB   float64
	layer    map[string]metric
	notes    []string
	tracer   *tracer
	finished int
}

func (w *window) jobsPerS() float64 {
	return float64(w.finished-w.wrong) / w.wall.Seconds()
}

// result is one run's full record, written to --out as one JSON line.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Env       map[string]any    `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	E2E       map[string]metric `json:"end_to_end"`
	Layer     map[string]metric `json:"per_layer,omitempty"`
	Notes     []string          `json:"notes"`
	Checks    []string          `json:"checks"`
	// tracer is the traced window's span store (nil untraced).
	tracer *tracer
}

const setupReps = 5

func newBench(cfg config) (bench, error) {
	switch cfg.workload {
	case "sim-batch":
		return newSimBatch(cfg), nil
	case "plan-screen":
		return newPlanScreen(cfg), nil
	case "serve-mix":
		return newServeMix(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (sim-batch, plan-screen, serve-mix)", cfg.workload)
}

// execute runs one workload: setUp setupReps times (setup_s is their
// median), the untraced window and its reference checks, and with
// cfg.trace a second, traced window on a fresh set-up, checked the same
// way.
func execute(ctx context.Context, cfg config) (*result, error) {
	b, err := newBench(cfg)
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := b.setUp(ctx); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			b.tearDown()
		}
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	w, err := b.measure(ctx, d, nil)
	b.tearDown()
	if err != nil {
		return nil, err
	}
	if err := b.check(ctx, w); err != nil {
		return nil, err
	}
	var tw *window
	if cfg.trace {
		if err := b.setUp(ctx); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		tw, err = b.measure(ctx, d, newTracer())
		b.tearDown()
		if err != nil {
			return nil, err
		}
		if err := b.check(ctx, tw); err != nil {
			return nil, err
		}
	}
	e2e := endToEnd(w, setups)
	res := &result{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Env: environment(cfg), E2E: e2e, Notes: w.notes, Checks: w.checks,
		Attempted: w.attempted, Failed: w.failed + w.wrong,
	}
	if tw != nil {
		res.Attempted += tw.attempted
		res.Failed += tw.failed + tw.wrong
		res.Layer = tw.layer
		res.tracer = tw.tracer
		if err := b.probe(ctx, res.Layer); err != nil {
			return nil, err
		}
		res.Layer["bench.trace_overhead_frac"] = metric{overhead(cfg.workload, w, tw), "ratio"}
		res.Notes = append(res.Notes, tw.notes...)
		res.Checks = append(res.Checks, tw.checks...)
	}
	res.Correct = res.Failed == 0 && len(res.Checks) > 0
	return res, nil
}

// overhead is the traced run's relative slowdown: jobs per second for
// the closed loops; for the open loop, whose throughput is the offered
// rate either way, the median job latency.
func overhead(workload string, w, tw *window) float64 {
	if workload == "serve-mix" {
		return tw.jobs.p50()/w.jobs.p50() - 1
	}
	return 1 - tw.jobsPerS()/w.jobsPerS()
}

// endToEnd derives the workload's end-to-end metrics from its untraced
// window.
func endToEnd(w *window, setups []float64) map[string]metric {
	m := map[string]metric{
		"setup_s":          {median(setups), "s"},
		"job_ms_p50":       {w.jobs.p50(), "ms"},
		"job_ms_tail":      {tailValue(w.jobs), "ms"},
		"jobs_per_s":       {w.jobsPerS(), "1/s"},
		"sim_events_per_s": {float64(w.events) / w.wall.Seconds(), "1/s"},
		"failed_frac":      {float64(w.failed+w.wrong) / float64(max(w.attempted, 1)), "ratio"},
		"heap_mb":          {w.heapMB, "MiB"},
	}
	w.notes = append(w.notes, tailNote("job_ms_tail", w.jobs))
	if len(w.hits) > 0 {
		m["hit_ms_p50"] = metric{w.hits.p50(), "ms"}
		m["hit_ms_tail"] = metric{tailValue(w.hits), "ms"}
		w.notes = append(w.notes, tailNote("hit_ms_tail", w.hits))
	}
	return m
}

// heapMiB forces a collection and reports HeapInuse in MiB. The second
// collection frees what the first only moved to sync.Pool victim caches.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapInuse) / (1 << 20)
}

// environment records what the figures depend on. Runs whose nproc
// differ are not compared (compare.py refuses them).
func environment(cfg config) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel(),
		"seed":       cfg.seed,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// pick selects the named metrics for the final line, failing when one
// is missing or not a finite number.
func pick(all map[string]metric, names []string) (map[string]metric, error) {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		m, ok := all[n]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		out[n] = m
	}
	return out, nil
}

func printTable(w io.Writer, title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

func printHuman(w io.Writer, r *result) {
	env, _ := json.Marshal(r.Env)
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	fmt.Fprintf(w, "env %s\n", env)
	printTable(w, "end-to-end (untraced window):", r.E2E)
	if r.Layer != nil {
		printTable(w, "per-layer (traced window):", r.Layer)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, c := range r.Checks {
		fmt.Fprintf(w, "check: %s\n", c)
	}
	fmt.Fprintf(w, "attempted %d failed %d correct %v\n", r.Attempted, r.Failed, r.Correct)
	if r.tracer != nil {
		fmt.Fprintln(w, "self time by span (traced window):")
		r.tracer.printSelfTimes(w)
	}
}

func main() {
	var cfg config
	var seed uint64
	var trace int
	var out string
	var selftest bool
	flag.StringVar(&cfg.workload, "workload", "", "sim-batch, plan-screen or serve-mix")
	flag.Uint64Var(&seed, "seed", 12345, "workload seed; every spec derives from it")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 adds a traced window and prints the per-layer metrics")
	flag.StringVar(&out, "out", "", "append the run's full record as one JSON line to this file")
	flag.StringVar(&cfg.outDir, "trace-dir", ".bench_out", "directory the traced run writes its spans into")
	flag.BoolVar(&selftest, "selftest", false, "run every workload briefly and assert its metrics and checks")
	flag.Parse()
	cfg.seed, cfg.trace, cfg.nproc = seed, trace == 1, runtime.NumCPU()

	// Every run ends well inside the harness's limit, even if a layer
	// hangs: a stuck run exits non-zero without a result line.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170 s")
		os.Exit(3)
	})
	ctx := context.Background()
	if selftest {
		if err := runSelfTest(ctx, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: selftest:", err)
			os.Exit(1)
		}
		fmt.Println("selftest ok")
		return
	}
	if err := mainRun(ctx, cfg, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainRun(ctx context.Context, cfg config, out string) error {
	if cfg.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	r, err := execute(ctx, cfg)
	if err != nil {
		return err
	}
	printHuman(os.Stdout, r)
	if r.tracer != nil {
		path, err := r.tracer.write(cfg.outDir, cfg.workload, cfg.seed)
		if err != nil {
			return err
		}
		fmt.Printf("spans written to %s\n", path)
	}
	if out != "" {
		if err := appendRecord(out, r); err != nil {
			return err
		}
	}
	names, all := e2eNames, r.E2E
	if cfg.trace {
		names, all = layerNames, r.Layer
	}
	metrics, err := pick(all, names)
	if err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !r.Correct {
		return fmt.Errorf("%d of %d jobs failed or produced a wrong report", r.Failed, r.Attempted)
	}
	return nil
}

func appendRecord(path string, r *result) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

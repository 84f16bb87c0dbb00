package main

import (
	"runtime"
	"time"

	"hmscs/internal/analytic"
	"hmscs/internal/core"
	"hmscs/internal/plan"
	"hmscs/internal/run"
)

// localLayers accumulates the traced window's per-job layer figures for
// the local workloads.
type localLayers struct {
	units       sample
	unitsPerJob sample
	busyMS      float64
	simEvents   int64
	maxPending  int64
	selfMS      sample
	sinkMS      sample
	events      sample
	screenMS    sample
	verifyMS    sample
}

// add folds one traced job: its unit spans, sink spans, progress events
// and engine telemetry. run.self_ms is the run.Run span minus the union
// of the job's unit and sink spans.
func (l *localLayers) add(jt *jobTrace, out *run.Outcome) {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	l.units = append(l.units, jt.units...)
	l.unitsPerJob = append(l.unitsPerJob, float64(len(jt.units)))
	l.busyMS += jt.units.sum()
	l.simEvents += out.Telemetry.Sim.Events
	l.maxPending = max(l.maxPending, out.Telemetry.Sim.MaxPending)
	root := jt.tr.get(jt.root)
	kids := make([]span, 0, len(jt.unitSpans)+len(jt.sinkSpans))
	for _, id := range append(append([]int(nil), jt.unitSpans...), jt.sinkSpans...) {
		kids = append(kids, jt.tr.get(id))
	}
	l.selfMS = append(l.selfMS, ms(root.End-root.Start-covered(root, kids)))
	l.sinkMS = append(l.sinkMS, jt.sinkMS)
	l.events = append(l.events, float64(jt.events))
	if out.Kind == run.KindPlan && jt.events > 0 {
		// The screen emits no progress; the verify stage's first event
		// ends it, and its last event ends verification.
		l.screenMS = append(l.screenMS, ms(jt.firstEv.Sub(jt.runStarted)))
		l.verifyMS = append(l.verifyMS, ms(jt.lastEv.Sub(jt.firstEv)))
		jt.tr.record(jt.job, jt.root, "plan.screen", jt.runStarted, jt.firstEv)
		jt.tr.record(jt.job, jt.root, "plan.verify", jt.firstEv, jt.lastEv)
	}
}

// metrics turns the accumulated figures into the local workloads'
// per-layer metrics. parUnits and parBusy are the window's par.Stats()
// deltas.
func (l *localLayers) metrics(w *window, parUnits int64, parBusy time.Duration, parallelism int, isPlan bool) map[string]metric {
	jobs := float64(max(w.finished, 1))
	m := map[string]metric{
		"sim.units":             {l.unitsPerJob.p50(), "count"},
		"sim.unit_ms_p50":       {l.units.p50(), "ms"},
		"sim.unit_ms_tail":      {tailValue(l.units), "ms"},
		"sim.events_per_busy_s": {float64(l.simEvents) / (l.busyMS / 1e3), "1/s"},
		"sim.max_pending":       {float64(l.maxPending), "count"},
		"par.units":             {float64(parUnits) / jobs, "count"},
		"par.busy_frac":         {parBusy.Seconds() / (w.wall.Seconds() * float64(parallelism)), "ratio"},
		"run.self_ms":           {l.selfMS.p50(), "ms"},
		"run.sink_ms":           {l.sinkMS.p50(), "ms"},
		"run.events":            {l.events.p50(), "count"},
	}
	w.notes = append(w.notes, tailNote("sim.unit_ms_tail", l.units))
	if isPlan {
		m["plan.screen_ms"] = metric{l.screenMS.p50(), "ms"}
		m["plan.verify_ms"] = metric{l.verifyMS.p50(), "ms"}
	}
	return m
}

// planCandidates enumerates a plan spec's design space and returns the
// arrival SCV the screen evaluates it at.
func planCandidates(e *run.Experiment) ([]plan.Candidate, float64, error) {
	sp, err := e.Plan.BuildSpace()
	if err != nil {
		return nil, 0, err
	}
	cands, err := plan.Enumerate(sp)
	if err != nil {
		return nil, 0, err
	}
	arr, err := e.Workload.BuildArrival()
	if err != nil {
		return nil, 0, err
	}
	return cands, arr.SCV(), nil
}

// probeSamples is the least number of timed model calls the analytic
// probe makes; short configuration lists are evaluated repeatedly.
const probeSamples = 512

// analyticProbe evaluates the model on each configuration one call at a
// time: the counts come from the first pass, the per-call times from
// every pass, and allocations from a MemStats delta over all passes.
func analyticProbe(cfgs []*core.Config, scv float64, layer map[string]metric) error {
	passes := max(1, (probeSamples+len(cfgs)-1)/len(cfgs))
	times := make(sample, 0, passes*len(cfgs))
	iters := 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for p := 0; p < passes; p++ {
		for _, c := range cfgs {
			t0 := time.Now()
			r, err := analytic.AnalyzeArrival(c, scv)
			d := time.Since(t0)
			if err != nil {
				return err
			}
			times = append(times, float64(d)/1e3)
			if p == 0 {
				iters += r.Iterations
			}
		}
	}
	runtime.ReadMemStats(&m1)
	calls := float64(len(times))
	layer["analytic.candidates"] = metric{float64(len(cfgs)), "count"}
	layer["analytic.iterations"] = metric{float64(iters), "count"}
	layer["analytic.us_per_candidate_p50"] = metric{times.p50(), "us"}
	layer["analytic.us_per_candidate_max"] = metric{times.max(), "us"}
	layer["analytic.allocs_per_candidate"] = metric{float64(m1.Mallocs-m0.Mallocs) / calls, "count"}
	return nil
}

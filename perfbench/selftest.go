package main

import (
	"context"
	"fmt"
	"math"
)

// Every metric each workload prints, beyond the final line's sets: the
// self-test asserts each is measured, finite and carries a unit.
var (
	extraE2E = map[string][]string{
		"sim-batch":   {"failed_frac"},
		"plan-screen": {"failed_frac"},
		"serve-mix":   {"failed_frac", "hit_ms_p50", "hit_ms_tail"},
	}
	localLayerNames = []string{"run.self_ms", "run.sink_ms", "run.events", "par.speedup_vs_p1"}
	extraLayers     = map[string][]string{
		"sim-batch":   localLayerNames,
		"plan-screen": append([]string{"plan.screen_ms", "plan.verify_ms"}, localLayerNames...),
		"serve-mix": {
			"serve.submit_ms_p50", "serve.queue_ms_p50", "serve.queue_ms_tail", "serve.exec_ms_p50",
			"serve.notify_ms_p50", "serve.result_ms_p50", "serve.list_ms_p50", "serve.retained_jobs",
			"serve.cache_hit_frac", "dist.remote_frac", "dist.lease_rtt_ms_p50", "dist.complete_rtt_ms_p50",
			"dist.worker_ms_per_unit", "dist.reassigned", "dist.duplicate", "netsim.exec_ms_p50",
			"bench.gen_late_ms_max",
		},
	}
	workloads = []string{"sim-batch", "plan-screen", "serve-mix"}
)

// selfTestSeconds is the short window each workload runs in the
// self-test; serve-mix needs a few requests per segment to list jobs.
var selfTestSeconds = map[string]float64{"sim-batch": 1, "plan-screen": 1, "serve-mix": 3}

// runSelfTest runs every workload briefly with its traced window and
// asserts that each metric above is printed with a unit, that the
// correctness checks ran and passed, and that a corrupted reference is
// caught.
func runSelfTest(ctx context.Context, base config) error {
	for _, wl := range workloads {
		cfg := base
		cfg.workload, cfg.seconds, cfg.trace = wl, selfTestSeconds[wl], true
		r, err := execute(ctx, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", wl, err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			return fmt.Errorf("%s: correct=%v attempted=%d failed=%d (notes: %v)", wl, r.Correct, r.Attempted, r.Failed, r.Notes)
		}
		if len(r.Checks) == 0 {
			return fmt.Errorf("%s: no correctness check ran", wl)
		}
		if err := present(r.E2E, append(append([]string(nil), e2eNames...), extraE2E[wl]...)); err != nil {
			return fmt.Errorf("%s end-to-end: %w", wl, err)
		}
		if err := present(r.Layer, append(append([]string(nil), layerNames...), extraLayers[wl]...)); err != nil {
			return fmt.Errorf("%s per-layer: %w", wl, err)
		}
		fmt.Printf("selftest %s: %d end-to-end and %d per-layer metrics, checks: %v\n", wl, len(r.E2E), len(r.Layer), r.Checks)

		cfg.trace, cfg.corrupt = false, true
		r, err = execute(ctx, cfg)
		if err != nil {
			return fmt.Errorf("%s with a corrupted reference: %w", wl, err)
		}
		if r.Correct || r.Failed == 0 {
			return fmt.Errorf("%s: a corrupted reference went unnoticed", wl)
		}
		fmt.Printf("selftest %s: corrupted reference caught (%d of %d jobs failed)\n", wl, r.Failed, r.Attempted)
	}
	return nil
}

// present checks that every named metric was measured, is finite and
// has a unit.
func present(m map[string]metric, names []string) error {
	for _, n := range names {
		v, ok := m[n]
		switch {
		case !ok:
			return fmt.Errorf("metric %s missing", n)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			return fmt.Errorf("metric %s = %v", n, v.Value)
		case v.Unit == "":
			return fmt.Errorf("metric %s has no unit", n)
		}
	}
	return nil
}

package plan

import (
	"context"
	"math"
	"reflect"
	"testing"

	"hmscs/internal/analytic"
	"hmscs/internal/core"
	"hmscs/internal/network"
)

// paperCandidates wraps the paper's Case-1 platform at C = 2, 4, 8, 16 as
// a candidate list.
func paperCandidates(t *testing.T) []Candidate {
	t.Helper()
	var cands []Candidate
	for i, c := range []int{2, 4, 8, 16} {
		cfg, err := core.PaperConfig(core.Case1, c, 1024, network.NonBlocking)
		if err != nil {
			t.Fatal(err)
		}
		cands = append(cands, Candidate{Index: i, Cfg: cfg, Headroom: 1})
	}
	return cands
}

func screenAt(t *testing.T, cands []Candidate, scv float64, parallelism int) []ScreenResult {
	t.Helper()
	res, err := screenCandidates(context.Background(), cands, SLO{MaxLatency: 2e-3}.Normalized(),
		DefaultCostModel(), scv, parallelism)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The screen selects the model exactly as analytic.UsesArrivalCorrection
// says: Poisson and infinite SCVs evaluate the M/M/1 model, a finite
// bursty SCV the G/G/1 correction.
func TestScreenCandidatesModelSelection(t *testing.T) {
	cands := paperCandidates(t)
	poisson := screenAt(t, cands, 1, 0)
	bursty := screenAt(t, cands, 4, 0)
	heavy := screenAt(t, cands, math.Inf(1), 0)
	for i, c := range cands {
		plain, err := analytic.Analyze(c.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		corrected, err := analytic.AnalyzeArrival(c.Cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(poisson[i].Predicted) != math.Float64bits(plain.MeanLatency) {
			t.Fatalf("candidate %d: screen %v vs Analyze %v", i, poisson[i].Predicted, plain.MeanLatency)
		}
		if math.Float64bits(bursty[i].Predicted) != math.Float64bits(corrected.MeanLatency) {
			t.Fatalf("candidate %d: screen at SCV=4 diverges from AnalyzeArrival", i)
		}
		if bursty[i].Predicted <= poisson[i].Predicted {
			t.Fatalf("candidate %d: burst correction did not raise latency", i)
		}
		if math.Float64bits(heavy[i].Predicted) != math.Float64bits(plain.MeanLatency) {
			t.Fatalf("candidate %d: infinite SCV should fall back to the M/M/1 model", i)
		}
	}
}

func TestScreenCandidatesParallelismInvariance(t *testing.T) {
	cands := paperCandidates(t)
	for _, scv := range []float64{1, 4} {
		seq := screenAt(t, cands, scv, 1)
		par := screenAt(t, cands, scv, 8)
		for i := range seq {
			for _, f := range [][2]float64{
				{seq[i].Predicted, par[i].Predicted},
				{seq[i].Cost, par[i].Cost},
				{seq[i].BottleneckRho, par[i].BottleneckRho},
			} {
				if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
					t.Fatalf("SCV %g candidate %d: %v at parallelism 1 vs %v at 8", scv, i, f[0], f[1])
				}
			}
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("SCV %g: screen differs between parallelism 1 and 8", scv)
		}
	}
}

// A candidate whose configuration fails is reported as the lowest-index
// failure at every parallelism level, ahead of a later, different one.
func TestScreenCandidatesLowestIndexError(t *testing.T) {
	good := paperCandidates(t)
	noNodes := *good[0].Cfg
	noNodes.Clusters = []core.Cluster{{Nodes: 0, Lambda: 1}}
	cands := []Candidate{good[0], good[1],
		{Index: 2, Cfg: &noNodes, Headroom: 1},
		{Index: 3, Cfg: &core.Config{}, Headroom: 1},
		good[2], good[3]}
	_, want := analytic.Analyze(&noNodes)
	if want == nil {
		t.Fatal("invalid configuration accepted")
	}
	for _, p := range []int{1, 4} {
		_, err := screenCandidates(context.Background(), cands, SLO{MaxLatency: 2e-3}.Normalized(),
			DefaultCostModel(), 1, p)
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("parallelism %d: err = %v, want candidate 2's %v", p, err, want)
		}
	}
}

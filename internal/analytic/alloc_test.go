package analytic

import (
	"testing"

	"hmscs/internal/core"
	"hmscs/internal/network"
)

// The fixed point reuses one rate buffer and a homogeneous system shares
// its network models, so an evaluation allocates the same small amount at
// every cluster count, for the M/M/1 model and the G/G/1 correction alike.
func TestAnalyzeAllocsIndependentOfC(t *testing.T) {
	var first float64
	for _, c := range []int{4, 256} {
		cfg := paperCfg(t, core.Case1, c, 1024, network.NonBlocking)
		plain := testing.AllocsPerRun(20, func() {
			if _, err := Analyze(cfg); err != nil {
				t.Fatal(err)
			}
		})
		arrival := testing.AllocsPerRun(20, func() {
			if _, err := AnalyzeArrival(cfg, 4); err != nil {
				t.Fatal(err)
			}
		})
		if plain != arrival {
			t.Fatalf("C=%d: Analyze allocates %v, AnalyzeArrival %v", c, plain, arrival)
		}
		if c == 4 {
			first = plain
		} else if plain != first {
			t.Fatalf("allocations grow with C: %v at C=4, %v at C=%d", first, plain, c)
		}
	}
}

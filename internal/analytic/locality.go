package analytic

import (
	"fmt"

	"hmscs/internal/core"
)

// AnalyzeLocality generalises the model's uniform-destination assumption
// (eq. 8) to traffic with an explicit locality parameter: every message
// stays inside its source cluster with probability locality, matching the
// simulator's workload.LocalBias pattern. Remote destinations are uniform
// over the nodes outside the source cluster.
//
// locality = (Nᵢ−1)/(N_T−1) recovers the paper's uniform traffic; higher
// values model applications with communication locality — the regime where
// the paper observes blocking networks become viable (§5.3).
func AnalyzeLocality(cfg *core.Config, locality float64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if locality < 0 || locality > 1 {
		return nil, fmt.Errorf("analytic: locality %g outside [0,1]", locality)
	}
	m, err := newModel(cfg)
	if err != nil {
		return nil, err
	}
	nt := cfg.TotalNodes()
	c := cfg.NumClusters()

	// Effective per-cluster local probabilities: degenerate clusters force
	// the same fallbacks the simulator's LocalBias applies.
	pLocal := make([]float64, c)
	for i, cl := range cfg.Clusters {
		p := locality
		if cl.Nodes <= 1 {
			p = 0 // no other local node exists
		}
		if nt-cl.Nodes == 0 {
			p = 1 // no remote node exists
		}
		pLocal[i] = p
	}

	// rates computes per-centre arrivals under the locality split with all
	// generation rates scaled by s, into buffers reused across calls.
	r := &m.rates
	r.ICN1, r.ECN1 = make([]float64, c), make([]float64, c)
	outbound := make([]float64, c)
	rates := func(s float64) *core.Rates {
		r.ICN2 = 0
		for i, cl := range cfg.Clusters {
			gen := float64(cl.Nodes) * cl.Lambda * s
			r.ICN1[i] = gen * pLocal[i]
			outbound[i] = gen * (1 - pLocal[i])
			r.ICN2 += outbound[i]
		}
		for i, cl := range cfg.Clusters {
			inbound := 0.0
			for j, other := range cfg.Clusters {
				if j == i || nt == other.Nodes {
					continue
				}
				share := float64(cl.Nodes) / float64(nt-other.Nodes)
				inbound += outbound[j] * share
			}
			r.ECN1[i] = outbound[i] + inbound
		}
		return r
	}

	res := &Result{P: 1 - pLocal[0]}
	if err := m.solve(res, rates, mm1Len, mm1Station); err != nil {
		return nil, err
	}

	// Mean latency under the locality split: local messages ride ICN1;
	// remote ones pay ECN1(src) + ICN2 + ECN1(dst), destination cluster
	// drawn by its share of the source's remote node pool.
	wI2 := res.icn2W()
	traffic := cfg.TotalTraffic() // > 0 on a validated config
	total := 0.0
	for i := range cfg.Clusters {
		wi := float64(cfg.Clusters[i].Nodes) * cfg.Clusters[i].Lambda / traffic // TrafficWeight(i)
		li := pLocal[i] * res.icn1W(i)
		remote := 1 - pLocal[i]
		if remote > 0 {
			destTerm := 0.0
			for j := range cfg.Clusters {
				if j == i {
					continue
				}
				share := float64(cfg.Clusters[j].Nodes) / float64(nt-cfg.Clusters[i].Nodes)
				destTerm += share * res.ecn1W(j)
			}
			li += remote * (res.ecn1W(i) + wI2 + destTerm)
		}
		total += wi * li
	}
	res.MeanLatency = total
	return res, nil
}

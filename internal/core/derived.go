package core

import (
	"fmt"

	"hmscs/internal/network"
	"hmscs/internal/queueing"
)

// Centers holds the per-service-centre network models of a system: one ICN1
// and one ECN1 per cluster plus the global ICN2, mirroring the paper's
// Figure 2 queueing model.
type Centers struct {
	ICN1 []*network.Model // per cluster, Nᵢ endpoints
	ECN1 []*network.Model // per cluster, Nᵢ+1 endpoints (processors + ICN2 uplink)
	ICN2 *network.Model   // C endpoints (one per cluster)
}

// BuildCenters constructs the communication-network model behind every
// service centre. Models are never mutated after construction, so a
// cluster identical to the one before it shares that cluster's ICN1 and
// ECN1 models: a homogeneous system builds three models, not 2C+1.
func (c *Config) BuildCenters() (*Centers, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	out := &Centers{
		ICN1: make([]*network.Model, len(c.Clusters)),
		ECN1: make([]*network.Model, len(c.Clusters)),
	}
	for i := range c.Clusters {
		cl := &c.Clusters[i]
		if i > 0 && *cl == c.Clusters[i-1] {
			out.ICN1[i], out.ECN1[i] = out.ICN1[i-1], out.ECN1[i-1]
			continue
		}
		m, err := network.NewModel(cl.ICN1, c.Arch, c.Switch, cl.Nodes)
		if err != nil {
			return nil, fmt.Errorf("core: cluster %d ICN1: %w", i, err)
		}
		out.ICN1[i] = m
		// ECN1 carries the cluster's processors plus the uplink toward ICN2.
		m, err = network.NewModel(cl.ECN1, c.Arch, c.Switch, cl.Nodes+1)
		if err != nil {
			return nil, fmt.Errorf("core: cluster %d ECN1: %w", i, err)
		}
		out.ECN1[i] = m
	}
	m, err := network.NewModel(c.ICN2, c.Arch, c.Switch, len(c.Clusters))
	if err != nil {
		return nil, fmt.Errorf("core: ICN2: %w", err)
	}
	out.ICN2 = m
	return out, nil
}

// ServiceTimes returns the mean service time of each centre for the
// configured message size.
func (ct *Centers) ServiceTimes(msgBytes int) (icn1, ecn1 []float64, icn2 float64) {
	icn1 = make([]float64, len(ct.ICN1))
	ecn1 = make([]float64, len(ct.ECN1))
	for i := range ct.ICN1 {
		icn1[i] = ct.ICN1[i].MeanServiceTime(msgBytes)
		ecn1[i] = ct.ECN1[i].MeanServiceTime(msgBytes)
	}
	return icn1, ecn1, ct.ICN2.MeanServiceTime(msgBytes)
}

// Rates holds the per-centre total arrival rates of the Jackson model
// (paper eq. 1–5, generalised to heterogeneous clusters).
type Rates struct {
	ICN1 []float64 // λ_I1 per cluster
	ECN1 []float64 // λ_E1 per cluster (outbound + inbound flows)
	ICN2 float64   // λ_I2
}

// ArrivalRates computes the per-centre arrival rates when every processor's
// generation rate is scaled by the given factor (1 for the raw rates; the
// effective-rate iteration of eq. 7 passes scale < 1).
//
// For homogeneous systems these reduce exactly to the paper's eq. 1–5:
// λ_I1 = N0(1−P)λ, λ_E1 = 2N0Pλ, λ_I2 = C·N0·P·λ.
func (c *Config) ArrivalRates(scale float64) Rates {
	var r Rates
	c.ArrivalRatesInto(scale, &r)
	return r
}

// ArrivalRatesInto is ArrivalRates writing into r, reusing its slices when
// they have room: the fixed-point iteration evaluates the rates dozens of
// times per configuration, so it keeps one buffer instead of allocating
// per step. It is O(C): N_T is summed once, not per cluster.
func (c *Config) ArrivalRatesInto(scale float64, r *Rates) {
	n := len(c.Clusters)
	r.ICN1 = resize(r.ICN1, n)
	r.ECN1 = resize(r.ECN1, n)
	r.ICN2 = 0
	nt := c.TotalNodes()
	if nt <= 1 {
		clear(r.ICN1)
		clear(r.ECN1)
		return
	}
	// Total generated traffic, so the per-cluster inbound sum is O(1):
	// Σ_{j≠i} Nⱼλⱼ = total − Nᵢλᵢ.
	totalGen := 0.0
	for i := range c.Clusters {
		cl := &c.Clusters[i]
		totalGen += float64(cl.Nodes) * cl.Lambda * scale
	}
	for i := range c.Clusters {
		cl := &c.Clusters[i]
		li := cl.Lambda * scale
		pi := float64(nt-cl.Nodes) / float64(nt-1) // POut(i)
		gen := float64(cl.Nodes) * li
		r.ICN1[i] = float64(cl.Nodes) * (1 - pi) * li
		// Outbound remote traffic generated inside cluster i.
		outbound := gen * pi
		// Inbound remote traffic destined to cluster i from every other
		// cluster j: each of the Nj processors addresses a node of cluster
		// i with probability Nᵢ/(N_T − 1).
		inbound := (totalGen - gen) * float64(cl.Nodes) / float64(nt-1)
		r.ECN1[i] = outbound + inbound
		r.ICN2 += outbound
	}
}

// resize returns s with length n, reusing its backing array when it has
// room. A nil s always gets a fresh (non-nil) slice.
func resize(s []float64, n int) []float64 {
	if s == nil || cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// TotalTraffic returns Σⱼ Nⱼλⱼ, the system's generated traffic at the raw
// rates: the denominator of TrafficWeight.
func (c *Config) TotalTraffic() float64 {
	total := 0.0
	for i := range c.Clusters {
		cl := &c.Clusters[i]
		total += float64(cl.Nodes) * cl.Lambda
	}
	return total
}

// TrafficWeight returns cluster i's share of generated traffic,
// Nᵢλᵢ / Σⱼ Nⱼλⱼ, used to average per-source-cluster latencies.
func (c *Config) TrafficWeight(i int) float64 {
	total := c.TotalTraffic()
	if total == 0 {
		return 0
	}
	cl := &c.Clusters[i]
	return float64(cl.Nodes) * cl.Lambda / total
}

// MVAStations maps the homogeneous system onto the closed-network stations
// used by the exact MVA cross-check: every physical queue becomes a station
// and, by symmetry, a random customer visits each cluster's ICN1 with
// probability (1−P)/C, each ECN1 with probability 2P/C, and ICN2 with
// probability P per generated message. The think time is 1/λ.
//
// MVA is single-class, so this mapping requires a homogeneous system.
func (c *Config) MVAStations() ([]queueing.MVAStation, float64, error) {
	if !c.Homogeneous() {
		return nil, 0, fmt.Errorf("core: MVA cross-check requires a homogeneous system")
	}
	centers, err := c.BuildCenters()
	if err != nil {
		return nil, 0, err
	}
	icn1, ecn1, icn2 := centers.ServiceTimes(c.MessageBytes)
	p := c.POut(0)
	cc := float64(len(c.Clusters))
	stations := make([]queueing.MVAStation, 0, 2*len(c.Clusters)+1)
	for i := range c.Clusters {
		stations = append(stations, queueing.MVAStation{
			Name:        fmt.Sprintf("ICN1[%d]", i),
			VisitRatio:  (1 - p) / cc,
			ServiceTime: icn1[i],
		})
		stations = append(stations, queueing.MVAStation{
			Name:        fmt.Sprintf("ECN1[%d]", i),
			VisitRatio:  2 * p / cc,
			ServiceTime: ecn1[i],
		})
	}
	stations = append(stations, queueing.MVAStation{
		Name:        "ICN2",
		VisitRatio:  p,
		ServiceTime: icn2,
	})
	think := 1 / c.Clusters[0].Lambda
	return stations, think, nil
}

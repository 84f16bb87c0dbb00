// Package analytic implements the paper's analytical performance model for
// HMSCS multi-cluster systems (§4–5): every communication network is an
// M/M/1 service centre fed by the Jackson-network arrival rates of
// eq. 1–5, processors block while a request is in flight, and the effective
// generation rate is found by the fixed-point iteration of eq. 7. The
// primary output is the mean message latency of eq. 15.
//
// The package also provides an exact Mean Value Analysis solution of the
// same system viewed as a closed queueing network, used as a cross-check
// for the paper's open-model approximation (an ablation the paper does not
// include).
package analytic

import (
	"fmt"
	"math"

	"hmscs/internal/core"
	"hmscs/internal/queueing"
)

// CenterKind labels the three kinds of service centres of Figure 2.
type CenterKind int

const (
	// ICN1 is a cluster's intra-communication network.
	ICN1 CenterKind = iota
	// ECN1 is a cluster's inter-communication network.
	ECN1
	// ICN2 is the global second-stage network.
	ICN2
)

func (k CenterKind) String() string {
	switch k {
	case ICN1:
		return "ICN1"
	case ECN1:
		return "ECN1"
	case ICN2:
		return "ICN2"
	default:
		return fmt.Sprintf("CenterKind(%d)", int(k))
	}
}

// CenterMetrics reports the steady-state M/M/1 quantities of one service
// centre at the converged effective rate.
type CenterMetrics struct {
	Kind    CenterKind
	Cluster int     // cluster index, -1 for ICN2
	Lambda  float64 // arrival rate at the fixed point
	Mu      float64 // service rate
	Rho     float64 // utilisation
	W       float64 // mean sojourn time (eq. 16)
	L       float64 // mean number in system
}

// Result is the analytical model's output for one configuration.
type Result struct {
	// P is the out-of-cluster probability of eq. 8 for cluster 0 (equal
	// across clusters in the homogeneous case).
	P float64
	// Scale is the converged effective-rate factor λ_eff/λ of eq. 7.
	Scale float64
	// Iterations is the number of fixed-point refinement steps used.
	Iterations int
	// MeanLatency is T_C of eq. 15, in seconds.
	MeanLatency float64
	// TotalWaiting is L of eq. 6: the mean number of blocked processors.
	TotalWaiting float64
	// Saturated reports that the raw rates (scale=1) would overload at
	// least one centre, so the effective-rate iteration governs behaviour.
	Saturated bool
	// Centers holds per-centre metrics at the fixed point, ICN1ᵢ at 2i,
	// ECN1ᵢ at 2i+1 and ICN2 last (at 2C).
	Centers []CenterMetrics
}

// Bottleneck returns the centre with the highest utilisation.
func (r *Result) Bottleneck() CenterMetrics {
	best := r.Centers[0]
	for _, c := range r.Centers[1:] {
		if c.Rho > best.Rho {
			best = c
		}
	}
	return best
}

// CenterW returns the mean sojourn time of the given centre, or NaN when it
// does not exist (e.g. ICN2 cluster index must be -1).
func (r *Result) CenterW(kind CenterKind, cluster int) float64 {
	for _, c := range r.Centers {
		if c.Kind == kind && c.Cluster == cluster {
			return c.W
		}
	}
	return math.NaN()
}

// Positional reads of Result.Centers' documented layout, O(1) where
// CenterW scans.
func (r *Result) icn1W(i int) float64 { return r.Centers[2*i].W }
func (r *Result) ecn1W(i int) float64 { return r.Centers[2*i+1].W }
func (r *Result) icn2W() float64      { return r.Centers[len(r.Centers)-1].W }

// model bundles the pre-computed service rates for a configuration and the
// rate buffer every L(s) evaluation reuses.
type model struct {
	cfg      *core.Config
	muICN1   []float64
	muECN1   []float64
	muICN2   float64
	nTotal   int
	saturCap float64 // L value used for unstable probes = total processors
	rates    core.Rates
}

func newModel(cfg *core.Config) (*model, error) {
	centers, err := cfg.BuildCenters()
	if err != nil {
		return nil, err
	}
	sI1, sE1, sI2 := centers.ServiceTimes(cfg.MessageBytes)
	m := &model{
		cfg:    cfg,
		muICN1: sI1,
		muECN1: sE1,
		muICN2: 1 / sI2,
		nTotal: cfg.TotalNodes(),
	}
	for i := range sI1 { // rates overwrite the service times in place
		m.muICN1[i] = 1 / sI1[i]
		m.muECN1[i] = 1 / sE1[i]
	}
	m.saturCap = float64(m.nTotal)
	return m, nil
}

// poissonRates fills the model's buffer with the eq. 1–5 rates at scale s.
func (m *model) poissonRates(s float64) *core.Rates {
	m.cfg.ArrivalRatesInto(s, &m.rates)
	return &m.rates
}

// queueLen is a centre's mean number in system at arrival rate lambda and
// service rate mu; ok is false when the centre is unstable.
type queueLen func(lambda, mu float64) (l float64, ok bool)

// station evaluates one centre's steady-state metrics (Lambda, Mu, Rho, W,
// L) at a stable arrival rate.
type station func(lambda, mu float64) (CenterMetrics, error)

// mm1Len is the M/M/1 queue length ρ/(1−ρ) of eq. 6.
func mm1Len(lambda, mu float64) (float64, bool) {
	if lambda >= mu {
		return 0, false
	}
	rho := lambda / mu
	return rho / (1 - rho), true
}

// mm1Station is the paper's M/M/1 centre (eq. 16).
func mm1Station(lambda, mu float64) (CenterMetrics, error) {
	st, err := queueing.NewMM1(lambda, mu)
	if err != nil {
		return CenterMetrics{}, err
	}
	w, err := st.W()
	if err != nil {
		return CenterMetrics{}, err
	}
	l, err := st.L()
	if err != nil {
		return CenterMetrics{}, err
	}
	return CenterMetrics{Lambda: lambda, Mu: mu, Rho: st.Rho(), W: w, L: l}, nil
}

// waiting returns L, the mean number of blocked processors, at the
// per-centre rates r. Any saturated centre clamps the result to the total
// processor count, which keeps the fixed-point map well-defined on all of
// [0,1] (paper eq. 6 with the physical cap).
func (m *model) waiting(r *core.Rates, qlen queueLen) float64 {
	total := 0.0
	for i := range m.muICN1 {
		l, ok := qlen(r.ICN1[i], m.muICN1[i])
		if !ok {
			return m.saturCap
		}
		total += l
		if l, ok = qlen(r.ECN1[i], m.muECN1[i]); !ok {
			return m.saturCap
		}
		total += l
	}
	l, ok := qlen(r.ICN2, m.muICN2)
	if !ok {
		return m.saturCap
	}
	total += l
	if total > m.saturCap {
		return m.saturCap
	}
	return total
}

// fixedPoint solves s = (N − L(s))/N by bisection. h(s) = s − g(s) is
// strictly increasing (L is increasing in s), h(0) < 0 and h(1) >= 0, so a
// unique root exists in (0, 1]. It also reports whether the raw rates
// saturate (L(1) reaches the processor cap), read off the same L(1) the
// early exit needs.
func (m *model) fixedPoint(L func(s float64) float64) (scale float64, iters int, saturated bool) {
	nTotal := float64(m.nTotal)
	g := func(l float64) float64 { return (nTotal - l) / nTotal }
	l1 := L(1)
	saturated = l1 >= m.saturCap
	lo, hi := 0.0, 1.0
	if h := 1 - g(l1); h <= 0 {
		// No blocking pressure at all: the raw rate is the fixed point.
		return 1, 1, saturated
	}
	const tol = 1e-12
	n := 0
	for hi-lo > tol && n < 200 {
		mid := (lo + hi) / 2
		if mid-g(L(mid)) < 0 {
			lo = mid
		} else {
			hi = mid
		}
		n++
	}
	return (lo + hi) / 2, n, saturated
}

// solve runs the effective-rate iteration of eq. 7 for one reading of the
// model — rates gives the per-centre arrivals at scale s, qlen and st the
// per-centre queue — and fills res with the fixed point and the per-centre
// metrics there, in the documented layout. rates may return a buffer it
// overwrites on the next call.
func (m *model) solve(res *Result, rates func(s float64) *core.Rates, qlen queueLen, st station) error {
	res.Scale, res.Iterations, res.Saturated = m.fixedPoint(func(s float64) float64 {
		return m.waiting(rates(s), qlen)
	})
	r := rates(res.Scale)

	// Per-centre metrics at the fixed point. The bisection can land within
	// tolerance of a saturation boundary; nudge just below it so the
	// queueing formulas stay finite.
	adjust := func(lambda, mu float64) float64 {
		if lambda < mu {
			return lambda
		}
		return mu * (1 - 1e-9)
	}
	c := len(m.muICN1)
	res.Centers = make([]CenterMetrics, 2*c+1)
	put := func(at int, kind CenterKind, cluster int, lambda, mu float64) error {
		cm, err := st(adjust(lambda, mu), mu)
		if err != nil {
			return err
		}
		cm.Kind, cm.Cluster = kind, cluster
		res.Centers[at] = cm
		return nil
	}
	for i := 0; i < c; i++ {
		if err := put(2*i, ICN1, i, r.ICN1[i], m.muICN1[i]); err != nil {
			return err
		}
		if err := put(2*i+1, ECN1, i, r.ECN1[i], m.muECN1[i]); err != nil {
			return err
		}
	}
	if err := put(2*c, ICN2, -1, r.ICN2, m.muICN2); err != nil {
		return err
	}
	for i := range res.Centers {
		res.TotalWaiting += res.Centers[i].L
	}
	return nil
}

// Analyze evaluates the paper's analytical model for the configuration and
// returns the mean message latency and per-centre metrics.
func Analyze(cfg *core.Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := newModel(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{P: cfg.POut(0)}
	if err := m.solve(res, m.poissonRates, mm1Len, mm1Station); err != nil {
		return nil, err
	}
	res.MeanLatency = meanLatency(cfg, res)
	return res, nil
}

// meanLatency evaluates eq. 15 generalised to heterogeneous clusters: a
// message from cluster i is local with probability (Nᵢ−1)/(N_T−1) and costs
// W_I1ᵢ; otherwise it targets cluster j with probability Nⱼ/(N_T−1) and
// costs W_E1ᵢ + W_I2 + W_E1ⱼ. Source clusters are weighted by their share
// of generated traffic. O(C): N_T, the traffic total and Σⱼ Nⱼ·W_E1ⱼ are
// computed once.
func meanLatency(cfg *core.Config, res *Result) float64 {
	nt := cfg.TotalNodes()
	traffic := cfg.TotalTraffic() // > 0 on a validated config
	wI2 := res.icn2W()
	// Pre-compute Σⱼ Nⱼ·W_E1ⱼ so the destination-side term is O(1) per
	// source cluster.
	sumNW := 0.0
	for j := range cfg.Clusters {
		sumNW += float64(cfg.Clusters[j].Nodes) * res.ecn1W(j)
	}
	total := 0.0
	for i := range cfg.Clusters {
		cl := &cfg.Clusters[i]
		wi := float64(cl.Nodes) * cl.Lambda / traffic // TrafficWeight(i)
		ni := cl.Nodes
		local := float64(ni-1) / float64(nt-1)
		pi := float64(nt-ni) / float64(nt-1) // POut(i)
		wE1 := res.ecn1W(i)
		destE1 := (sumNW - float64(ni)*wE1) / float64(nt-1)
		li := local*res.icn1W(i) + pi*(wE1+wI2) + destE1
		total += wi * li
	}
	return total
}

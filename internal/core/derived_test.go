package core

import (
	"math"
	"testing"

	"hmscs/internal/network"
)

// referenceRates is eq. 1–5 written per cluster with POut, the form
// ArrivalRatesInto must reproduce bit for bit.
func referenceRates(c *Config, scale float64) Rates {
	r := Rates{ICN1: make([]float64, len(c.Clusters)), ECN1: make([]float64, len(c.Clusters))}
	nt := c.TotalNodes()
	if nt <= 1 {
		return r
	}
	totalGen := 0.0
	for _, cl := range c.Clusters {
		totalGen += float64(cl.Nodes) * cl.Lambda * scale
	}
	for i, cl := range c.Clusters {
		li := cl.Lambda * scale
		pi := c.POut(i)
		gen := float64(cl.Nodes) * li
		r.ICN1[i] = float64(cl.Nodes) * (1 - pi) * li
		outbound := gen * pi
		inbound := (totalGen - gen) * float64(cl.Nodes) / float64(nt-1)
		r.ECN1[i] = outbound + inbound
		r.ICN2 += outbound
	}
	return r
}

func ratesBitEqual(a, b Rates) bool {
	if len(a.ICN1) != len(b.ICN1) || len(a.ECN1) != len(b.ECN1) ||
		math.Float64bits(a.ICN2) != math.Float64bits(b.ICN2) {
		return false
	}
	for i := range a.ICN1 {
		if math.Float64bits(a.ICN1[i]) != math.Float64bits(b.ICN1[i]) ||
			math.Float64bits(a.ECN1[i]) != math.Float64bits(b.ECN1[i]) {
			return false
		}
	}
	return true
}

// heterogeneous returns a C-cluster system whose clusters all differ in
// size and rate.
func heterogeneous(c int) *Config {
	cfg := &Config{ICN2: network.FastEthernet, Arch: network.NonBlocking,
		Switch: network.PaperSwitch, MessageBytes: 1024}
	for i := 0; i < c; i++ {
		cfg.Clusters = append(cfg.Clusters, Cluster{Nodes: 1 + 7*i%13, Lambda: 30 + 17.5*float64(i),
			ICN1: network.GigabitEthernet, ECN1: network.FastEthernet})
	}
	return cfg
}

// One buffer reused across configurations whose cluster count grows and
// shrinks stays bit-equal to a fresh ArrivalRates and to the per-cluster
// reference.
func TestArrivalRatesIntoReusedBufferBitEqual(t *testing.T) {
	var buf Rates
	for _, c := range []int{1, 4, 64, 2, 256, 8, 16} {
		for _, cfg := range []*Config{mustPaperConfig(t, Case1, c, 1024, network.NonBlocking), heterogeneous(c)} {
			for _, scale := range []float64{1, 0.5, 0.123456789} {
				cfg.ArrivalRatesInto(scale, &buf)
				if fresh := cfg.ArrivalRates(scale); !ratesBitEqual(buf, fresh) {
					t.Fatalf("%v scale %g: reused buffer differs from fresh ArrivalRates", cfg, scale)
				}
				if ref := referenceRates(cfg, scale); !ratesBitEqual(buf, ref) {
					t.Fatalf("%v scale %g: differs from the per-cluster POut form", cfg, scale)
				}
			}
		}
	}
}

// With fewer than two processors there is no traffic: a reused buffer is
// zeroed, not left holding the previous configuration's rates.
func TestArrivalRatesIntoZeroesBufferWithoutTraffic(t *testing.T) {
	var buf Rates
	heterogeneous(8).ArrivalRatesInto(1, &buf)
	single := &Config{Clusters: []Cluster{{Nodes: 1, Lambda: 100}}}
	single.ArrivalRatesInto(1, &buf)
	if len(buf.ICN1) != 1 || len(buf.ECN1) != 1 {
		t.Fatalf("lengths %d, %d, want 1", len(buf.ICN1), len(buf.ECN1))
	}
	if math.Float64bits(buf.ICN1[0]) != 0 || math.Float64bits(buf.ECN1[0]) != 0 || math.Float64bits(buf.ICN2) != 0 {
		t.Fatalf("rates %+v, want all zero", buf)
	}
	// The buffer kept its room; growing back must not resurrect old rates.
	heterogeneous(8).ArrivalRatesInto(1, &buf)
	(&Config{Clusters: make([]Cluster, 3)}).ArrivalRatesInto(1, &buf)
	for i := range buf.ICN1 {
		if buf.ICN1[i] != 0 || buf.ECN1[i] != 0 {
			t.Fatalf("cluster %d: stale rates %v, %v", i, buf.ICN1[i], buf.ECN1[i])
		}
	}
}

// A homogeneous system shares one ICN1 and one ECN1 model across its
// clusters, and its service times are bit-equal to building each
// cluster's networks on its own.
func TestBuildCentersSharesIdenticalClusters(t *testing.T) {
	for _, arch := range []network.Architecture{network.NonBlocking, network.Blocking} {
		cfg := mustPaperConfig(t, Case2, 64, 1024, arch)
		ct, err := cfg.BuildCenters()
		if err != nil {
			t.Fatal(err)
		}
		for i := range ct.ICN1 {
			if ct.ICN1[i] != ct.ICN1[0] || ct.ECN1[i] != ct.ECN1[0] {
				t.Fatalf("%v: cluster %d built its own models", arch, i)
			}
		}
		icn1, ecn1, _ := ct.ServiceTimes(cfg.MessageBytes)
		for i, cl := range cfg.Clusters {
			m1, err := network.NewModel(cl.ICN1, cfg.Arch, cfg.Switch, cl.Nodes)
			if err != nil {
				t.Fatal(err)
			}
			me, err := network.NewModel(cl.ECN1, cfg.Arch, cfg.Switch, cl.Nodes+1)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(icn1[i]) != math.Float64bits(m1.MeanServiceTime(cfg.MessageBytes)) ||
				math.Float64bits(ecn1[i]) != math.Float64bits(me.MeanServiceTime(cfg.MessageBytes)) {
				t.Fatalf("%v cluster %d: shared service times differ from a per-cluster build", arch, i)
			}
		}
	}
	// Distinct neighbours never share.
	ct, err := heterogeneous(6).BuildCenters()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ct.ICN1); i++ {
		if ct.ICN1[i] == ct.ICN1[i-1] {
			t.Fatalf("clusters %d and %d differ but share a model", i-1, i)
		}
	}
}

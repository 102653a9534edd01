package cluster_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/rack"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
)

// maxAllocsPerRequest bounds the marginal heap allocations per resolved
// request of a full run. Every machine's events target resources that
// implement sim.Handler, so the per-request path allocates nothing;
// what remains is amortized growth (latency samples, queue rings),
// which shrinks per request as runs lengthen.
const maxAllocsPerRequest = 0.02

// allocRun runs one configuration and reports the resolved requests
// (completions plus drops in the measurement window).
type allocRun func(cfg cluster.RunConfig) uint64

// midLoad is the allocation gate's configuration: High Bimodal (many
// quanta per long request, so a per-event allocation costs dozens per
// request) at half of the given core count's saturation, run for d
// after a fixed warmup, so a longer d adds only steady-state requests.
func midLoad(cores int, d sim.Time) cluster.RunConfig {
	w := workload.HighBimodal()
	warm := 500 * sim.Microsecond
	return cluster.RunConfig{Workload: w, Rate: 0.5 * w.MaxLoad(cores), Duration: warm + d, Warmup: warm, Seed: 3}
}

// marginalAllocs measures allocations per extra resolved request
// between a run of length 4T and one of length T: the per-request cost
// with every per-run constant (construction, the fresh engine's
// timing-wheel storage, result collection) cancelled out.
func marginalAllocs(t *testing.T, cores int, run allocRun) float64 {
	t.Helper()
	const short = 10 * sim.Millisecond
	measure := func(d sim.Time) (allocs float64, resolved uint64) {
		cfg := midLoad(cores, d)
		allocs = testing.AllocsPerRun(2, func() { resolved = run(cfg) })
		return allocs, resolved
	}
	a1, n1 := measure(short)
	a4, n4 := measure(4 * short)
	if n4 <= n1 {
		t.Fatalf("4T run resolved %d requests, T run %d: want more", n4, n1)
	}
	return (a4 - a1) / float64(n4-n1)
}

// TestMachineRunsAllocationFree is the hot-path allocation gate: every
// registry machine, standalone and (where it has one) in its node form
// on an externally owned engine, plus a 4-machine rack fleet, must
// resolve requests without allocating per request. A closure or a
// boxed value reintroduced on any machine's event path costs at least
// one allocation per event — dozens per request — and fails it.
func TestMachineRunsAllocationFree(t *testing.T) {
	if cluster.RaceEnabled {
		t.Skip("race instrumentation allocates; the zero-alloc guarantee is for production builds")
	}
	check := func(name string, cores int, run allocRun) {
		t.Run(name, func(t *testing.T) {
			per := marginalAllocs(t, cores, run)
			t.Logf("%.4f allocs per extra resolved request", per)
			if per >= maxAllocsPerRequest {
				t.Fatalf("%.4f allocs per resolved request, want < %v", per, maxAllocsPerRequest)
			}
		})
	}
	for _, name := range cluster.Names() {
		e := cluster.MustLookup(name)
		check(name, 16, func(cfg cluster.RunConfig) uint64 { return e.New().Run(cfg).Offered })
		if !e.CanNode() {
			continue
		}
		check(name+"/node", 16, func(cfg cluster.RunConfig) uint64 {
			eng := sim.New()
			node := e.NewNode(eng, cfg)
			cluster.NewPump(eng, cfg.Stream(rng.New(cfg.Seed)), cfg.Duration, node.Inject).Start()
			eng.Run()
			return node.Collect().Offered
		})
	}
	fleet := rack.Fleet{N: 4, Machine: "tq", Policy: "sew"}
	check(fleet.Name(), 4*16, func(cfg cluster.RunConfig) uint64 { return fleet.Run(cfg).Offered })
}

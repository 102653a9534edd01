package main

import (
	"repro/internal/cluster"
	"repro/internal/rack"
	"repro/internal/sim"
	"repro/internal/workload"
)

// sweepDef is one cluster.ParallelSweep of a pass: one machine (or
// fleet) over a rate grid. Every point of the grid is one operation.
type sweepDef struct {
	label    string
	w        *workload.Workload
	arrivals string
	tenants  []workload.Tenant
	slos     map[string]sim.Time
	rates    []float64
	dur      sim.Time
	// run simulates one point; placed is the fleet's per-machine
	// placement count (nil for a single machine).
	run func(cfg cluster.RunConfig) (res *cluster.Result, placed []uint64)
}

// warm is the point's warm-up window: the paper discards the first 10%.
func (s sweepDef) warm() sim.Time { return s.dur / 10 }

// workloadDef is one benchmark workload: the sweeps of one pass. scale
// multiplies every simulated duration (1 in benchmark runs; tests run
// the same grids shorter).
type workloadDef struct {
	name   string
	why    string
	sweeps func(scale float64) []sweepDef
}

var workloads = []workloadDef{
	{
		name:   "fig7-sweep",
		why:    "the paper's Fig 7 load sweep: preemptive TQ and Shinjuku on ExtremeBimodal, quantum-heavy, drives sim, policy and core",
		sweeps: fig7Sweeps,
	},
	{
		name:   "fcfs-pareto-bursty",
		why:    "run-to-completion d-FCFS and Caladan on Pareto service, MMPP bursts and tenants: workload plane, kernel pump, admission, stats",
		sweeps: fcfsSweeps,
	},
	{
		name:   "rack8-sew",
		why:    "8 TQ machines behind sew routing on one engine: deepest pending set, pifo queues, rack router and feedback",
		sweeps: rackSweeps,
	},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, d := range workloads {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

func scaled(d sim.Time, scale float64) sim.Time {
	return sim.Time(float64(d) * scale)
}

// machineRun runs a fresh registry machine per point, so no machine
// state is shared between concurrently simulated points.
func machineRun(mf cluster.MachineFactory) func(cluster.RunConfig) (*cluster.Result, []uint64) {
	return func(cfg cluster.RunConfig) (*cluster.Result, []uint64) {
		return mf().Run(cfg), nil
	}
}

// fig7Sweeps: TQ and Shinjuku (5µs quantum) on ExtremeBimodal with
// Poisson arrivals, 8 rates up to 95% of 16-core saturation.
func fig7Sweeps(scale float64) []sweepDef {
	w := workload.ExtremeBimodal()
	rates := cluster.RatesUpTo(0.95*w.MaxLoad(16), 8)
	tq := cluster.MustLookup("tq")
	sj := cluster.MustLookup("shinjuku")
	return []sweepDef{
		{label: "tq", w: w, rates: rates, dur: scaled(20*sim.Millisecond, scale), run: machineRun(tq.New)},
		{label: "shinjuku", w: w, rates: rates, dur: scaled(20*sim.Millisecond, scale),
			run: machineRun(func() cluster.Machine { return sj.NewQ(sim.Micros(5)) })},
	}
}

// fcfsSweeps: d-FCFS and Caladan directpath (run-to-completion) on
// Pareto service with MMPP bursts split across two tenants under a
// sojourn SLO, 8 rates up to 95% of 16-core saturation.
func fcfsSweeps(scale float64) []sweepDef {
	w, err := workload.FromLaw("pareto:mean=2us,alpha=1.6")
	if err != nil {
		panic(err)
	}
	tenants, err := workload.ParseTenants("big=0.9@0.5,small=0.1@0.25")
	if err != nil {
		panic(err)
	}
	rates := cluster.RatesUpTo(0.95*w.MaxLoad(16), 8)
	var out []sweepDef
	for _, name := range []string{"d-fcfs", "caladan-directpath"} {
		out = append(out, sweepDef{
			label:    name,
			w:        w,
			arrivals: "mmpp:burst=10,duty=0.1,cycle=1ms",
			tenants:  tenants,
			slos:     map[string]sim.Time{"*": 50 * sim.Microsecond},
			rates:    rates,
			dur:      scaled(20*sim.Millisecond, scale),
			run:      machineRun(cluster.MustLookup(name).New),
		})
	}
	return out
}

// rackSweeps: one 8-machine TQ fleet behind shortest-expected-wait
// routing on HighBimodal, 4 rates up to 90% of fleet saturation.
func rackSweeps(scale float64) []sweepDef {
	w := workload.HighBimodal()
	f := rack.Fleet{N: 8, Machine: "tq", Policy: "sew"}
	return []sweepDef{{
		label: f.Name(),
		w:     w,
		rates: cluster.RatesUpTo(0.9*w.MaxLoad(8*16), 4),
		dur:   scaled(20*sim.Millisecond, scale),
		run: func(cfg cluster.RunConfig) (*cluster.Result, []uint64) {
			fr := f.RunFleet(cfg)
			return fr.Fleet, fr.Placed
		},
	}}
}

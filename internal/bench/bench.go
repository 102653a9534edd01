// Package bench pins the repository's performance-tracking workload
// matrix: a fixed set of named benchmarks — engine microbenchmarks,
// the kernel arrival pump, full machine runs, a parallel sweep grid —
// whose results are written as one JSON report (BENCH_<pr>.json at each
// PR, artifacts/bench-quick.json in CI). Fixing the matrix in code,
// rather than in ad-hoc `go test -bench` invocations, makes reports
// from different PRs directly comparable: same workloads, same seeds,
// same units. cmd/tqbench is the command-line driver; EXPERIMENTS.md
// ("Benchmark trajectory") documents how to read a report and what to
// do when a number regresses.
package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/pifo"
	"repro/internal/rack"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Schema identifies the report format; bump it when Result fields
// change incompatibly.
const Schema = "tqbench/v1"

// Result is one benchmark's measurement.
type Result struct {
	// Name identifies the benchmark within the fixed matrix, as
	// "<area>/<bench>" (e.g. "engine/wheel-churn").
	Name string `json:"name"`
	// N is the operation count the averages divide by: simulation events
	// for engine and machine benches, arrivals for the pump, sweep
	// points' pooled events for the grid.
	N int64 `json:"n"`
	// WallNs is the measured wall-clock time in nanoseconds.
	WallNs int64 `json:"wallNs"`
	// NsPerOp is WallNs / N.
	NsPerOp float64 `json:"nsPerOp"`
	// EventsPerSec is N / wall seconds — the headline throughput.
	EventsPerSec float64 `json:"eventsPerSec"`
	// AllocsPerOp is exact heap allocations per operation; AllocsInt is
	// the same truncated toward zero (the testing.B convention), the
	// number guards compare against.
	AllocsPerOp float64 `json:"allocsPerOp"`
	AllocsInt   int64   `json:"allocsPerOpInt"`
	// Note carries bench-specific context (workload, config).
	Note string `json:"note,omitempty"`
}

// Report is one full run of the matrix.
type Report struct {
	// Schema is always the package's Schema constant.
	Schema string `json:"schema"`
	// PR is the pull-request number the report was recorded for; 0 when
	// unattributed (CI smoke runs).
	PR int `json:"pr,omitempty"`
	// GoVersion and Gomaxprocs describe the measuring host.
	GoVersion  string `json:"goVersion"`
	Gomaxprocs int    `json:"gomaxprocs"`
	// Quick marks reduced-size CI smoke runs, which are only good for
	// "did it run and hold its invariants", not for cross-PR comparison.
	Quick bool `json:"quick"`
	// Benches holds the matrix results in fixed matrix order.
	Benches []Result `json:"benches"`
}

// Options configures one matrix run.
type Options struct {
	// Quick shrinks every benchmark to smoke-test size (seconds, not
	// minutes). CI uses it; checked-in BENCH_<pr>.json reports must not.
	Quick bool
	// PR stamps the report with the pull-request number.
	PR int
	// Progress, when non-nil, receives one line per completed benchmark.
	Progress func(string)
}

// Run executes the full benchmark matrix and returns its report.
func Run(opt Options) *Report {
	r := &Report{
		Schema:     Schema,
		PR:         opt.PR,
		GoVersion:  runtime.Version(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		Quick:      opt.Quick,
	}
	for _, b := range matrix {
		n := b.full
		if opt.Quick {
			n = b.quick
		}
		res := b.run(n)
		res.Name = b.name
		r.Benches = append(r.Benches, res)
		if opt.Progress != nil {
			opt.Progress(fmt.Sprintf("%-22s %12.0f events/sec  %8.1f ns/op  %6.3f allocs/op",
				res.Name, res.EventsPerSec, res.NsPerOp, res.AllocsPerOp))
		}
	}
	return r
}

// zeroAllocBenches are the matrix entries whose steady state must not
// allocate: Validate requires their allocsPerOpInt (allocations per
// arrival, draw or engine event, truncated) to be 0. A closure or a
// boxed value on any of these hot paths costs at least one allocation
// per operation and fails the report.
var zeroAllocBenches = []string{
	"kernel/arrival-pump",
	"workload/arrival-stream",
	"machine/tq-run",
	"machine/shinjuku-run",
	"rack/fleet-run",
}

// Validate checks a report's structural and semantic invariants: the
// schema tag, a complete matrix in order, positive measurements, and
// the zero-allocation guarantee of the arrival path and of full machine
// and fleet runs. CI's bench smoke step runs it against the quick
// report.
func Validate(r *Report) error {
	if r.Schema != Schema {
		return fmt.Errorf("schema %q, want %q", r.Schema, Schema)
	}
	if len(r.Benches) != len(matrix) {
		return fmt.Errorf("%d benches, want %d", len(r.Benches), len(matrix))
	}
	for i, b := range r.Benches {
		if b.Name != matrix[i].name {
			return fmt.Errorf("bench %d is %q, want %q", i, b.Name, matrix[i].name)
		}
		if b.N <= 0 || b.WallNs <= 0 || b.NsPerOp <= 0 || b.EventsPerSec <= 0 {
			return fmt.Errorf("%s: non-positive measurement: %+v", b.Name, b)
		}
		if b.AllocsPerOp < 0 {
			return fmt.Errorf("%s: negative allocs/op %f", b.Name, b.AllocsPerOp)
		}
	}
	for _, name := range zeroAllocBenches {
		if b := find(r, name); b.AllocsInt != 0 {
			return fmt.Errorf("%s allocates: %d allocs/op (exact %f), want 0", name, b.AllocsInt, b.AllocsPerOp)
		}
	}
	return nil
}

// Decode parses a report from its JSON encoding.
func Decode(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench report: %w", err)
	}
	return &r, nil
}

// Encode renders the report as indented JSON with a trailing newline,
// the format BENCH_<pr>.json files are checked in as.
func (r *Report) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Speedup returns the wheel-over-heap engine speedup the report
// records (events/sec ratio), or 0 if either bench is missing.
func (r *Report) Speedup() float64 {
	heap := find(r, "engine/heap-churn")
	wheel := find(r, "engine/wheel-churn")
	if heap.EventsPerSec == 0 {
		return 0
	}
	return wheel.EventsPerSec / heap.EventsPerSec
}

func find(r *Report, name string) Result {
	for _, b := range r.Benches {
		if b.Name == name {
			return b
		}
	}
	return Result{}
}

// matrixBench is one fixed matrix entry: a name and a measurement
// function taking the size knob (full vs quick).
type matrixBench struct {
	name        string
	full, quick int
	run         func(n int) Result
}

// The matrix. Order is fixed; Validate pins it.
var matrix = []matrixBench{
	{"engine/wheel-churn", 2_000_000, 200_000, benchWheelChurn},
	{"engine/heap-churn", 2_000_000, 200_000, benchHeapChurn},
	{"pifo/push-pop", 2_000_000, 200_000, benchPifoChurn},
	{"kernel/arrival-pump", 1_000_000, 100_000, benchArrivalPump},
	{"workload/arrival-stream", 2_000_000, 200_000, benchArrivalStream},
	{"machine/tq-run", 20, 5, benchTQRun},
	{"machine/shinjuku-run", 20, 5, benchShinjukuRun},
	{"obs/tq-run-traced", 20, 5, benchTQRunTraced},
	{"sweep/parallel-grid", 8, 4, benchParallelGrid},
	{"rack/fleet-run", 20, 5, benchRackRun},
}

// churnDepth is the standing event count for the engine churn
// microbenchmarks — the regime a mid-load 16-core machine run keeps
// the queue in.
const churnDepth = 1024

// measure wraps a benchmark body with the common wall-clock and
// allocation accounting. n is the op count the body performs. The
// explicit collection first drains the GC debt accumulated by earlier
// matrix entries — as testing.B does between benchmarks — so no bench
// is billed for its predecessors' garbage.
func measure(n int64, note string, body func()) Result {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	body()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(n)
	return Result{
		N:            n,
		WallNs:       wall.Nanoseconds(),
		NsPerOp:      float64(wall.Nanoseconds()) / float64(n),
		EventsPerSec: float64(n) / wall.Seconds(),
		AllocsPerOp:  allocs,
		AllocsInt:    int64(allocs),
		Note:         note,
	}
}

func benchWheelChurn(n int) Result {
	sim.EngineChurn(churnDepth, n/10, 61) // warm the wheel's slot storage
	return measure(int64(n), "1024-deep self-renewing churn, timing wheel engine", func() {
		sim.EngineChurn(churnDepth, n, 61)
	})
}

func benchHeapChurn(n int) Result {
	sim.HeapChurn(churnDepth, n/10, 61)
	return measure(int64(n), "1024-deep self-renewing churn, retired 4-ary heap baseline", func() {
		sim.HeapChurn(churnDepth, n, 61)
	})
}

func benchPifoChurn(n int) Result {
	pifo.Churn(churnDepth, n/10, 61) // warm the queue's item storage
	return measure(int64(n), "1024-deep push/pop churn, rank-programmable PIFO queue", func() {
		pifo.Churn(churnDepth, n, 61)
	})
}

// benchArrivalStream measures the composed workload stream alone — the
// arrival-process × service-sampler × tenant-pick path, no engine — on
// the TPC-C mix under MMPP bursts with a two-tenant table, the
// costliest composition the plane offers. Steady state must stay
// allocation-free (Validate pins allocsPerOpInt == 0), matching the
// pump's guarantee one layer down.
func benchArrivalStream(n int) Result {
	w := workload.TPCC()
	spec := workload.Spec{
		Workload: w,
		Rate:     0.6 * w.MaxLoad(16),
		Arrivals: "mmpp:burst=10,duty=0.1,cycle=1ms",
		Tenants: []workload.Tenant{
			{Name: "big", Ratio: 0.9, Share: 0.5},
			{Name: "small", Ratio: 0.1, Share: 0.25},
		},
	}
	s := spec.Stream(rng.New(61))
	workload.StreamChurn(s, n/10) // warm the stream into steady state
	return measure(int64(n), "composed TPCC stream: mmpp bursts, two tenants; allocsPerOpInt must be 0", func() {
		workload.StreamChurn(s, n)
	})
}

func benchArrivalPump(n int) Result {
	m := cluster.MeasureArrivalPump(n)
	wallNs := m.NsPerOp * float64(n)
	return Result{
		N:            int64(n),
		WallNs:       int64(wallNs),
		NsPerOp:      m.NsPerOp,
		EventsPerSec: 1e9 / m.NsPerOp,
		AllocsPerOp:  m.AllocsPerOp,
		AllocsInt:    int64(m.AllocsPerOp),
		Note:         "kernel arrival path on the sink machine; allocsPerOpInt must be 0",
	}
}

// machineConfig is the standard mid-load sweep point shared by the full
// machine benches: Extreme Bimodal at 60% of 16-core saturation — the
// same regime the obs guard benchmarks use.
func machineConfig(ms int) cluster.RunConfig {
	w := workload.ExtremeBimodal()
	return cluster.RunConfig{
		Workload: w,
		Rate:     0.6 * w.MaxLoad(16),
		Duration: sim.Time(ms) * sim.Millisecond,
		Warmup:   sim.Time(ms) / 10 * sim.Millisecond,
		Seed:     1,
	}
}

func benchMachine(mk func() cluster.Machine, cfg cluster.RunConfig, note string) Result {
	mk().Run(cfg) // warm caches and the allocator
	var events int64
	res := measure(1, note, func() {
		events = int64(mk().Run(cfg).Events)
	})
	res.N = events
	res.NsPerOp = float64(res.WallNs) / float64(events)
	res.EventsPerSec = float64(events) / (float64(res.WallNs) / 1e9)
	res.AllocsPerOp /= float64(events)
	res.AllocsInt = int64(res.AllocsPerOp)
	return res
}

func benchTQRun(ms int) Result {
	return benchMachine(func() cluster.Machine { return cluster.NewTQ(cluster.NewTQParams()) },
		machineConfig(ms), fmt.Sprintf("full TQ run, ExtremeBimodal @60%%, %dms", ms))
}

func benchShinjukuRun(ms int) Result {
	return benchMachine(func() cluster.Machine { return cluster.NewShinjuku(cluster.NewShinjukuParams(5 * sim.Microsecond)) },
		machineConfig(ms), fmt.Sprintf("full Shinjuku run (5µs quantum), ExtremeBimodal @60%%, %dms", ms))
}

func benchTQRunTraced(ms int) Result {
	cfg := machineConfig(ms)
	rec := obs.NewRing(1 << 22)
	cfg.Obs = rec
	// Reset the ring per constructed machine so every run records from
	// empty and stays in the fast append path (a Reset is O(1)).
	return benchMachine(func() cluster.Machine { rec.Reset(); return cluster.NewTQ(cluster.NewTQParams()) },
		cfg, fmt.Sprintf("full TQ run with obs ring attached, %dms", ms))
}

// benchRackRun measures the rack routing plane end to end: a 4-machine
// TQ fleet behind shortest-expected-wait routing — one shared engine,
// the fleet arrival pump, per-request routing with backlog probes and
// completion feedback, and per-machine admission all on the hot path.
func benchRackRun(ms int) Result {
	const fleetSize = 4
	w := workload.HighBimodal()
	cfg := cluster.RunConfig{
		Workload: w,
		Rate:     0.6 * w.MaxLoad(16*fleetSize),
		Duration: sim.Time(ms) * sim.Millisecond,
		Warmup:   sim.Time(ms) / 10 * sim.Millisecond,
		Seed:     1,
	}
	return benchMachine(func() cluster.Machine {
		return rack.Fleet{N: fleetSize, Machine: "tq", Policy: "sew"}
	}, cfg, fmt.Sprintf("4x tq fleet behind sew routing, HighBimodal @60%%, %dms", ms))
}

func benchParallelGrid(points int) Result {
	w := workload.ExtremeBimodal()
	max := w.MaxLoad(16)
	rates := make([]float64, points)
	for i := range rates {
		rates[i] = max * (0.1 + 0.8*float64(i)/float64(points-1))
	}
	mf := func() cluster.Machine { return cluster.NewTQ(cluster.NewTQParams()) }
	dur, warm := 10*sim.Millisecond, sim.Millisecond
	var events int64
	res := measure(1, fmt.Sprintf("ParallelSweep, TQ, %d rates 10%%-90%% of saturation, 10ms points", points), func() {
		for _, r := range cluster.ParallelSweep(mf, w, rates, dur, warm, 61, cluster.SweepOptions{}) {
			events += int64(r.Events)
		}
	})
	res.N = events
	res.NsPerOp = float64(res.WallNs) / float64(events)
	res.EventsPerSec = float64(events) / (float64(res.WallNs) / 1e9)
	res.AllocsPerOp /= float64(events)
	res.AllocsInt = int64(res.AllocsPerOp)
	return res
}

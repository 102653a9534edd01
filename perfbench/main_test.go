package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// quickScale shrinks every simulated duration for the tests.
const quickScale = 0.2

func quickOptions(traced bool) options {
	return options{seed: 7, seconds: 0.3, traced: traced, scale: quickScale, noRef: true, log: &bytes.Buffer{}}
}

type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesProgram pins BENCHMARK.json to the metrics
// and workloads the program emits, name by name with units.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: file has %q %q, program %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []struct{ name, unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: file lists %d metrics, program emits %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].name != want[i].name || got[i].unit != want[i].unit {
				t.Errorf("%s %d: file has %s [%s], program %s [%s]", kind, i, got[i].name, got[i].unit, want[i].name, want[i].unit)
			}
		}
	}
	var e2e, layer []struct{ name, unit string }
	for _, m := range f.EndToEnd {
		e2e = append(e2e, struct{ name, unit string }{m.Name, m.Unit})
	}
	for _, m := range f.PerLayer {
		layer = append(layer, struct{ name, unit string }{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
}

// TestEveryMetricEmitted runs every workload at quick scale, untraced
// and traced, and checks that every metric is emitted with its unit,
// that every operation passes its checks, and that the cpu.* shares
// sum to 1.
func TestEveryMetricEmitted(t *testing.T) {
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			res, errs, err := measure(def, quickOptions(traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", def.name, traced, err)
			}
			for _, e := range errs {
				t.Errorf("%s traced=%v: %v", def.name, traced, e)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", def.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", def.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v, want a finite value in %s", def.name, traced, d.name, v, d.unit)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", def.name, d.name, res.Metrics[d.name].Value)
					}
				}
				continue
			}
			var sum float64
			for _, b := range cpuBuckets {
				sum += res.Metrics["cpu."+b].Value
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("%s: cpu.* shares sum to %v, want 1", def.name, sum)
			}
			if res.Metrics["obs.truncated_events"].Value != 0 {
				t.Errorf("%s: traced timelines truncated", def.name)
			}
		}
	}
}

// TestReferenceDigests replays seed 0 of every workload at full scale
// against the checked-in reference digests.
func TestReferenceDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale passes")
	}
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range workloads {
		want, err := ref.digests(def.name, 0)
		if err != nil {
			t.Fatal(err)
		}
		p := passRunner{sweeps: def.sweeps(1), seed: 0, ref: want}.run(nil)
		for _, op := range p.ops {
			if op.err != nil {
				t.Errorf("%s: %v", def.name, op.err)
			}
		}
	}
}

// perturb applies f to the Result of the sweep's first rate only.
func perturb(sw sweepDef, f func(*cluster.Result)) sweepDef {
	run := sw.run
	sw.run = func(cfg cluster.RunConfig) (*cluster.Result, []uint64) {
		res, placed := run(cfg)
		if cfg.Rate == sw.rates[0] {
			f(res)
		}
		return res, placed
	}
	return sw
}

// TestPerturbedResultFails checks that a Result that breaks a
// conservation law or differs from its reference digest is counted as
// a failed operation, not as a pass.
func TestPerturbedResultFails(t *testing.T) {
	def, _ := lookupWorkload("fcfs-pareto-bursty")
	sweeps := def.sweeps(quickScale)[:1]
	clean := passRunner{sweeps: sweeps, seed: 3}.run(nil)
	var ref []string
	for _, op := range clean.ops {
		if op.err != nil {
			t.Fatal(op.err)
		}
		ref = append(ref, op.digest)
	}
	cases := []struct {
		name string
		f    func(*cluster.Result)
		want string
	}{
		{"completion moved to dropped", func(r *cluster.Result) {
			r.Completed--
			r.Dropped++
			r.PerClass[0].Count--
			r.PerTenant[0].Completed--
			r.PerTenant[0].Dropped++
		}, "digest"},
		{"completion lost", func(r *cluster.Result) { r.Completed-- }, "conservation"},
		{"tenant drop not in aggregate", func(r *cluster.Result) {
			r.PerTenant[1].Dropped++
			r.PerTenant[1].Offered++
		}, "conservation"},
	}
	for _, c := range cases {
		bad := []sweepDef{perturb(sweeps[0], c.f)}
		p := passRunner{sweeps: bad, seed: 3, ref: ref}.run(nil)
		var tl tally
		tl.add(p)
		if tl.failed != 1 || tl.attempted != len(ref) {
			t.Errorf("%s: failed=%d attempted=%d, want 1 of %d", c.name, tl.failed, tl.attempted, len(ref))
			continue
		}
		if !strings.Contains(tl.errs[0].Error(), c.want) {
			t.Errorf("%s: error %q, want it to name the %s check", c.name, tl.errs[0], c.want)
		}
		if res := result(tl, nil, nil); res.Correct {
			t.Errorf("%s: result reports correct", c.name)
		}
	}
}

// TestPanicFailsOperation checks that a panicking simulation fails its
// own operation and the pass goes on.
func TestPanicFailsOperation(t *testing.T) {
	def, _ := lookupWorkload("fig7-sweep")
	sw := def.sweeps(quickScale)[0]
	run := sw.run
	sw.run = func(cfg cluster.RunConfig) (*cluster.Result, []uint64) {
		if cfg.Rate == sw.rates[2] {
			panic(errors.New("injected"))
		}
		return run(cfg)
	}
	p := passRunner{sweeps: []sweepDef{sw}, seed: 1}.run(nil)
	var tl tally
	tl.add(p)
	if tl.failed != 1 || !strings.Contains(tl.errs[0].Error(), "panic: injected") {
		t.Fatalf("failed=%d errs=%v, want the one injected panic", tl.failed, tl.errs)
	}
}

func TestSampleBucket(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"math.Log", "repro/internal/workload.paretoSampler.Sample", "repro/internal/cluster.(*machineRun).inject"}, "workload"},
		{[]string{"repro/internal/rng.(*Rand).Float64", "repro/internal/workload.(*Stream).Next"}, "workload"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "repro/internal/cluster.(*tqRun).step"}, "go-runtime.alloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/sim.(*Engine).At"}, "go-runtime.gc"},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, "go-runtime.gc"},
		{[]string{"repro/internal/cluster.(*metrics).record", "repro/internal/cluster.(*tqRun).finish"}, "cluster.kernel"},
		{[]string{"repro/internal/cluster.(*admission).tryAdmit"}, "cluster.kernel"},
		{[]string{"repro/internal/cluster.NewPump.func1"}, "cluster.kernel"},
		{[]string{"repro/internal/cluster.(*tqRun).step.func2", "repro/internal/sim.(*Engine).Run"}, "cluster.policy"},
		{[]string{"sort.pdqsort", "repro/internal/stats.(*Sample).sort"}, "stats"},
		{[]string{"repro/internal/rack.(*sewRouter).Route"}, "rack"},
		{[]string{"fmt.Fprintf", "main.digest"}, "bench"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
	}
	for _, c := range cases {
		if got := sampleBucket(c.stack); got != c.want {
			t.Errorf("%v: bucket %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--workload", "fig7-sweep", "--trace", "2"},
		{"--workload", "fig7-sweep", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want a non-zero exit and no result", args, code, out.String())
		}
	}
}

func TestSimSeedFolding(t *testing.T) {
	for seed, want := range map[int64]uint64{0: 0, 5: 5, 32: 0, 33: 1, -1: 31} {
		if got := (options{seed: seed}).simSeed(); got != want {
			t.Errorf("seed %d: simulation seed %d, want %d", seed, got, want)
		}
	}
}

package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/workload"
)

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 3

// warmupScale is the warm-up pass's share of the timed pass's
// simulated duration.
const warmupScale = 0.25

type options struct {
	seed    int64
	seconds float64
	traced  bool
	// scale multiplies every simulated duration (tests shrink it).
	scale float64
	ref   reference
	// setupFrom is the process CPU time at which the first set-up
	// begins: zero, process start, for a run of one workload.
	setupFrom time.Duration
	// log receives per-pass progress lines.
	log io.Writer
	// noRef skips the reference digests (tests at reduced scale, whose
	// digests differ from the recorded full-scale ones).
	noRef bool
}

// simSeed maps the benchmark seed onto the recorded reference seeds.
func (o options) simSeed() uint64 {
	return uint64(((o.seed % refSeeds) + refSeeds) % refSeeds)
}

// tally accumulates the operation counts and failures of a run.
type tally struct {
	attempted, failed int
	errs              []error
}

func (t *tally) add(p passResult) {
	t.attempted += len(p.ops)
	for _, op := range p.ops {
		if op.err != nil {
			t.failed++
			t.errs = append(t.errs, op.err)
		}
	}
}

// measure runs one workload: set-up (repeated), then either the timed
// untraced passes (end-to-end metrics) or the layer passes.
func measure(def workloadDef, o options) (benchResult, []error, error) {
	var refs []string
	if !o.noRef {
		var err error
		if refs, err = o.ref.digests(def.name, o.simSeed()); err != nil {
			return benchResult{}, nil, err
		}
	}
	var t tally
	var setups []float64
	var runner passRunner
	var yard *yardstick
	if !o.traced {
		yard = newYardstick()
	}
	for k := 0; k < setupReps; k++ {
		cpu0 := o.setupFrom
		if k > 0 {
			cpu0 = cpuTime()
		}
		runner = passRunner{sweeps: def.sweeps(o.scale), seed: o.simSeed(), ref: refs, yard: yard}
		if refs != nil && len(refs) != runner.ops() {
			return benchResult{}, nil, fmt.Errorf("reference has %d digests for %s, pass has %d operations", len(refs), def.name, runner.ops())
		}
		warm := passRunner{sweeps: def.sweeps(o.scale * warmupScale), seed: o.simSeed(), yard: yard}
		p := warm.run(nil)
		t.add(p)
		setups = append(setups, (cpuTime()-cpu0-p.refCPU).Seconds()/p.hostFactor())
		fmt.Fprintf(o.log, "setup %d: %.3f nominal cpu-s, host factor %.3f\n", k, setups[k], p.hostFactor())
	}

	m := map[string]float64{}
	if !o.traced {
		passes := timedPasses(runner, o.seconds)
		for i, p := range passes {
			t.add(p)
			fmt.Fprintf(o.log, "pass %d: wall %.3fs cpu %.3fs %.0f req/cpu-s host factor %.3f %.0f req/nominal-s %.1f MB peak\n",
				i, p.wall.Seconds(), p.cpu.Seconds(), p.reqPerCPUSecond(), p.hostFactor(), p.reqPerNominalSecond(), float64(p.peakMem)/(1<<20))
		}
		m["setup_s"] = median(setups)
		m["req_per_s"] = medianOf(passes, passResult.reqPerNominalSecond)
		m["allocs_per_req"] = medianOf(passes, func(p passResult) float64 { return float64(p.mallocs) / float64(p.offered()) })
		m["alloc_bytes_per_req"] = medianOf(passes, func(p passResult) float64 { return float64(p.allocBytes) / float64(p.offered()) })
		m["max_rss_mb"] = medianOf(passes, func(p passResult) float64 { return float64(p.peakMem) / (1 << 20) })
		return result(t, m, endToEnd), t.errs, nil
	}
	if err := layerMetrics(runner, o, &t, m); err != nil {
		return benchResult{}, nil, err
	}
	res := result(t, m, perLayer)
	res.allocsPerReq = m["allocs_per_req"]
	return res, t.errs, nil
}

func result(t tally, m map[string]float64, defs []metricDef) benchResult {
	res := benchResult{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	return res
}

// timedPasses runs passes until seconds of host time have elapsed, at
// least one.
func timedPasses(r passRunner, seconds float64) []passResult {
	var out []passResult
	start := time.Now()
	for len(out) == 0 || time.Since(start).Seconds() < seconds {
		out = append(out, r.run(nil))
	}
	return out
}

// layerMetrics fills the per-layer metrics from three phases, none of
// them part of the end-to-end passes: untraced passes for host-time
// ratios (30% of the seconds), untraced passes under the CPU profiler
// for the cpu.* shares (50%), and one pass recording every timeline
// through traceRecorder.
func layerMetrics(runner passRunner, o options, t *tally, m map[string]float64) error {
	gc0 := readGC()
	plain := timedPasses(runner, 0.3*o.seconds)
	gc1 := readGC()
	var offered, events, dropped uint64
	var simWall, queryWall time.Duration
	var placed []float64
	var pointWalls []float64
	for _, p := range plain {
		t.add(p)
		for _, op := range p.ops {
			offered += op.offered
			events += op.events
			dropped += op.dropped
			simWall += op.simWall
			queryWall += op.queryWall
			placed = append(placed, op.placedMaxOverMean)
		}
		for _, w := range p.pointWalls {
			pointWalls = append(pointWalls, w.Seconds())
		}
	}
	nOps := float64(len(plain) * runner.ops())
	m["sim.events_per_req"] = float64(events) / float64(offered)
	m["sim.ns_per_event"] = float64(simWall.Nanoseconds()) / float64(events)
	m["gc.cycles_per_mreq"] = (gc1.cycles - gc0.cycles) / (float64(offered) / 1e6)
	m["gc.cpu_share"] = (gc1.gcCPU - gc0.gcCPU) / (gc1.totalCPU - gc0.totalCPU)
	m["cluster.drop_ratio"] = float64(dropped) / float64(offered)
	m["rack.placed_max_over_mean"] = mean(placed)
	m["stats.query_ms"] = float64(queryWall.Nanoseconds()) / 1e6 / nOps
	m["sweep.parallel_eff"] = medianOf(plain, func(p passResult) float64 {
		var sum time.Duration
		for _, w := range p.pointWalls {
			sum += w
		}
		return sum.Seconds() / (sweepWorkers * p.wall.Seconds())
	})
	m["sweep.point_s_p50"] = median(pointWalls)
	m["sweep.req_per_wall_s"] = medianOf(plain, func(p passResult) float64 { return float64(p.offered()) / p.wall.Seconds() })
	m["allocs_per_req"] = medianOf(plain, func(p passResult) float64 { return float64(p.mallocs) / float64(p.offered()) })

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("start cpu profile: %w", err)
	}
	for _, p := range timedPasses(runner, 0.5*o.seconds) {
		t.add(p)
	}
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares(prof.Bytes())
	if err != nil {
		return err
	}
	for _, b := range cpuBuckets {
		m["cpu."+b] = shares[b]
	}
	m["cpu.samples"] = float64(samples)

	rec := runner.run(newRingPool(sweepWorkers))
	t.add(rec)
	var kinds [obs.KindCount]uint64
	var emit time.Duration
	var validate float64
	var emitEvents, truncated, recOffered uint64
	var tracedWall, plainWall float64
	for j, op := range rec.ops {
		for k := range kinds {
			kinds[k] += op.kinds[k]
		}
		emit += op.emit
		emitEvents += op.emitEvents
		truncated += op.truncated
		validate += float64(op.validate.Nanoseconds()) / 1e6
		recOffered += op.offered
		tracedWall += op.simWall.Seconds()
		plainWall += medianOf(plain, func(p passResult) float64 { return p.ops[j].simWall.Seconds() })
	}
	for k, n := range kinds {
		m["obs."+obs.Kind(k).String()+"_per_req"] = float64(n) / float64(recOffered)
	}
	m["obs.emit_ns_per_event"] = float64(emit.Nanoseconds()) / float64(emitEvents)
	m["obs.trace_overhead"] = tracedWall / plainWall
	m["obs.validate_ms"] = validate / float64(len(rec.ops))
	m["obs.truncated_events"] = float64(truncated)
	m["workload.next_ns"] = streamNextNs(runner)
	return nil
}

// streamNextNs replays the workload's request streams — the same
// composition, rates and request counts as one pass — through
// workload.Spec.Stream(...).Next and returns host ns per request.
func streamNextNs(r passRunner) float64 {
	var n int
	var wall time.Duration
	var sink uint64
	for _, sw := range r.sweeps {
		for i, rate := range sw.rates {
			spec := workload.Spec{Workload: sw.w, Rate: rate, Arrivals: sw.arrivals, Tenants: sw.tenants}
			st := spec.Stream(rng.New(rng.PointSeed(r.seed, uint64(i))))
			k := int(rate * sw.dur.Seconds())
			start := time.Now()
			for j := 0; j < k; j++ {
				req, ok := st.Next()
				if !ok {
					break
				}
				sink += req.ID
			}
			wall += time.Since(start)
			n += k
		}
	}
	if sink == 0 || n == 0 {
		return 0
	}
	return float64(wall.Nanoseconds()) / float64(n)
}

type gcSample struct{ cycles, gcCPU, totalCPU float64 }

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcSample{
		cycles:   float64(s[0].Value.Uint64()),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func medianOf(ps []passResult, f func(passResult) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// layerReport runs every workload traced and prints the cpu.* shares
// side by side, with the separations the workloads were chosen for.
func layerReport(o options, stdout, stderr io.Writer) error {
	o.traced = true
	cols := make([]benchResult, len(workloads))
	allocs := make([]float64, len(workloads))
	for i, def := range workloads {
		o.setupFrom = cpuTime()
		res, errs, err := measure(def, o)
		if err != nil {
			return err
		}
		for _, e := range errs {
			fmt.Fprintln(stderr, "FAIL", e)
		}
		cols[i] = res
		allocs[i] = res.allocsPerReq
	}
	fmt.Fprintf(stdout, "%-22s", "metric")
	for _, def := range workloads {
		fmt.Fprintf(stdout, " %20s", def.name)
	}
	fmt.Fprintln(stdout)
	for _, d := range perLayer {
		fmt.Fprintf(stdout, "%-22s", d.name)
		for _, c := range cols {
			fmt.Fprintf(stdout, " %20.4g", c.Metrics[d.name].Value)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "%-22s", "allocs_per_req")
	for _, a := range allocs {
		fmt.Fprintf(stdout, " %20.4g", a)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout)
	for _, c := range separationChecks(cols, allocs) {
		fmt.Fprintln(stdout, c)
	}
	return nil
}

// separationChecks states, for the report, whether each workload still
// stresses the layers it was chosen for. cols and allocs are in
// workloads order: fig7-sweep, fcfs-pareto-bursty, rack8-sew.
func separationChecks(cols []benchResult, allocs []float64) []string {
	share := func(i int, b string) float64 { return cols[i].Metrics["cpu."+b].Value }
	verdict := func(ok bool) string {
		if ok {
			return "ok"
		}
		return "NOT MET"
	}
	const fig7, fcfs, rk = 0, 1, 2
	return []string{
		fmt.Sprintf("cpu.workload fcfs-pareto-bursty / rack8-sew = %.3g / %.3g (want >= 5x): %s",
			share(fcfs, "workload"), share(rk, "workload"), verdict(share(fcfs, "workload") >= 5*share(rk, "workload"))),
		fmt.Sprintf("cpu.rack = %.3g / %.3g / %.3g (want non-zero only on rack8-sew): %s",
			share(fig7, "rack"), share(fcfs, "rack"), share(rk, "rack"),
			verdict(share(fig7, "rack") == 0 && share(fcfs, "rack") == 0 && share(rk, "rack") > 0)),
		fmt.Sprintf("cpu.core fig7-sweep / fcfs-pareto-bursty = %.3g / %.3g (want >= 3x): %s",
			share(fig7, "core"), share(fcfs, "core"), verdict(share(fig7, "core") >= 3*share(fcfs, "core"))),
		fmt.Sprintf("allocs_per_req fcfs-pareto-bursty < fig7-sweep < rack8-sew = %.3g < %.3g < %.3g: %s",
			allocs[fcfs], allocs[fig7], allocs[rk], verdict(allocs[fcfs] < allocs[fig7] && allocs[fig7] < allocs[rk])),
	}
}

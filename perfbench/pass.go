package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// opResult is what one operation — one simulated run, a sweep point or
// a fleet run — leaves behind.
type opResult struct {
	offered, dropped, events     uint64
	placedMaxOverMean            float64
	simWall, queryWall, validate time.Duration
	digest                       string
	err                          error

	// Traced operations only.
	kinds      [obs.KindCount]uint64
	emit       time.Duration // replaying the timeline's emission
	emitEvents uint64        // events replayed
	truncated  uint64        // events the ring discarded
}

// passResult is one pass: every sweep of the workload, run once.
type passResult struct {
	ops        []opResult
	wall       time.Duration
	pointWalls []time.Duration // host time per point, from SweepOptions.OnPoint
	mallocs    uint64
	allocBytes uint64
	cpu        time.Duration // process CPU time, all threads
	peakMem    uint64        // peak resident bytes, sampled (see memPeak)
	refCPU     time.Duration // yardstick CPU time, part of cpu
	refIters   uint64        // yardstick iterations
}

func (p passResult) offered() (n uint64) {
	for _, op := range p.ops {
		n += op.offered
	}
	return n
}

// reqPerCPUSecond is the pass's resolved requests per second of
// process CPU time (all threads, user and system), the yardstick's own
// time excluded.
func (p passResult) reqPerCPUSecond() float64 {
	return float64(p.offered()) / (p.cpu - p.refCPU).Seconds()
}

// hostFactor is how much slower than the nominal host the yardstick
// ran during the pass (1 without a yardstick).
func (p passResult) hostFactor() float64 {
	if p.refIters == 0 {
		return 1
	}
	return float64(p.refCPU.Nanoseconds()) / float64(p.refIters) / nominalRefNs
}

// reqPerNominalSecond is reqPerCPUSecond scaled to the nominal host.
func (p passResult) reqPerNominalSecond() float64 {
	return p.reqPerCPUSecond() * p.hostFactor()
}

// passRunner runs passes of one workload at one seed.
type passRunner struct {
	sweeps []sweepDef
	seed   uint64
	ref    []string // reference digest per operation; nil skips the check
	// yard, when non-nil, is measured after every operation.
	yard *yardstick
}

func (r passRunner) ops() int {
	n := 0
	for _, s := range r.sweeps {
		n += len(s.rates)
	}
	return n
}

// run executes one pass. With rings non-nil every operation records its
// timeline into a pooled traceRecorder, which is then validated.
func (r passRunner) run(rings ringPool) passResult {
	p := passResult{ops: make([]opResult, r.ops())}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, bytes := ms.Mallocs, ms.TotalAlloc
	mem := startMemPeak()
	cpu0 := cpuTime()
	start := time.Now()
	off := 0
	for i := range r.sweeps {
		sw := &r.sweeps[i]
		m := &opMachine{sw: sw, ops: p.ops[off : off+len(sw.rates)], rings: rings, yard: r.yard}
		if r.ref != nil {
			m.ref = r.ref[off : off+len(sw.rates)]
		}
		cluster.ParallelSweep(func() cluster.Machine { return m }, sw.w, sw.rates, sw.dur, sw.warm(), r.seed,
			cluster.SweepOptions{Workers: sweepWorkers, OnPoint: func(pt cluster.SweepPoint) {
				p.pointWalls = append(p.pointWalls, pt.Wall)
			}})
		off += len(sw.rates)
	}
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	p.peakMem = mem.stop()
	if r.yard != nil {
		p.refCPU, p.refIters = r.yard.take()
	}
	runtime.ReadMemStats(&ms)
	p.mallocs, p.allocBytes = ms.Mallocs-mallocs, ms.TotalAlloc-bytes
	return p
}

// opMachine is the cluster.Machine every sweep point runs through. It
// stamps the sweep's arrival, tenant and SLO axes onto the config,
// runs the point, reads the tail statistics a user of the sweep reads,
// and checks the Result. A panic fails the operation, not the process.
// One value serves all points of a sweep: each point writes only its
// own opResult.
type opMachine struct {
	sw    *sweepDef
	ops   []opResult
	ref   []string
	rings ringPool
	yard  *yardstick
}

func (m *opMachine) Name() string { return m.sw.label }

func (m *opMachine) Run(cfg cluster.RunConfig) (res *cluster.Result) {
	i := indexOf(m.sw.rates, cfg.Rate)
	op := &m.ops[i]
	cfg.Arrivals, cfg.Tenants, cfg.SLOs = m.sw.arrivals, m.sw.tenants, m.sw.slos
	var rec *traceRecorder
	if m.rings != nil {
		rec = m.rings.get()
		defer m.rings.put(rec)
		cfg.Obs = rec
	}
	defer func() {
		if p := recover(); p != nil {
			op.err = fmt.Errorf("%s at %.0f req/s: panic: %v", m.sw.label, cfg.Rate, p)
			res = &cluster.Result{System: m.sw.label, Config: cfg}
		}
	}()

	start := time.Now()
	res, placed := m.sw.run(cfg)
	op.simWall = time.Since(start)
	op.offered, op.dropped, op.events = res.Offered, res.Dropped, res.Events
	op.placedMaxOverMean = maxOverMean(placed)

	start = time.Now()
	for _, c := range res.PerClass {
		res.P99SojournUs(c.Name)
		res.P999SojournUs(c.Name)
	}
	res.P999Slowdown("")
	op.queryWall = time.Since(start)

	want := ""
	if m.ref != nil {
		want = m.ref[i]
	}
	op.digest, op.err = checkResult(res, want)
	if op.err != nil {
		op.err = fmt.Errorf("%s at %.0f req/s: %w", m.sw.label, cfg.Rate, op.err)
	}

	if rec != nil {
		op.kinds = rec.kinds
		op.truncated = uint64(rec.ring.Discarded())
		op.emit, op.emitEvents = rec.replayEmit(), uint64(rec.ring.Len())
		start = time.Now()
		err := rec.validate()
		op.validate = time.Since(start)
		if err != nil && op.err == nil {
			op.err = fmt.Errorf("%s at %.0f req/s: %w", m.sw.label, cfg.Rate, err)
		}
	}
	if m.yard != nil {
		m.yard.run(max(yardstickMin, time.Duration(yardstickShare*float64(op.simWall))))
	}
	return res
}

func indexOf(rates []float64, rate float64) int {
	for i, r := range rates {
		if r == rate {
			return i
		}
	}
	panic(fmt.Sprintf("perfbench: rate %g is not on the sweep grid", rate))
}

// maxOverMean is the busiest machine's placement count over the fleet
// mean (1 = perfectly even); 0 without a fleet.
func maxOverMean(placed []uint64) float64 {
	if len(placed) == 0 {
		return 0
	}
	var sum, max uint64
	for _, n := range placed {
		sum += n
		if n > max {
			max = n
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(placed)) / float64(sum)
}

// sweepWorkers is the sweep worker count. One worker leaves the second
// CPU of a two-CPU host to the Go runtime (GC marking, scavenging): on
// the shared two-vCPU host the benchmark was built on, two workers
// made the CPU time of identical passes vary by ±17%, one by ±9%.
const sweepWorkers = 1

// memPeakPeriod is how often memPeak samples resident memory.
const memPeakPeriod = 5 * time.Millisecond

// memPeak tracks the peak of the Go runtime's resident-memory account —
// memory mapped from the OS minus memory released back to it — sampled
// every memPeakPeriod on its own goroutine.
type memPeak struct {
	done chan struct{}
	peak chan uint64
}

func startMemPeak() memPeak {
	m := memPeak{done: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
		}
		tick := time.NewTicker(memPeakPeriod)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(s)
			if r := s[0].Value.Uint64() - s[1].Value.Uint64(); r > peak {
				peak = r
			}
			select {
			case <-m.done:
				m.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// stop ends the sampling and returns the peak, after the sampling
// goroutine has exited.
func (m memPeak) stop() uint64 {
	close(m.done)
	return <-m.peak
}

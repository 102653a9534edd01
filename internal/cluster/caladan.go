package cluster

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
)

// CaladanMode selects how packets reach worker cores.
type CaladanMode int

// Caladan's two operating modes (§5.1).
const (
	// IOKernel routes every packet through a central IOKernel core —
	// cheap for workers but a potential throughput bottleneck.
	IOKernel CaladanMode = iota
	// Directpath lets workers talk to the NIC directly — no central
	// bottleneck, but per-packet processing lands on the workers.
	Directpath
)

// String names the mode as it appears in system labels ("iokernel",
// "directpath").
func (m CaladanMode) String() string {
	if m == IOKernel {
		return "iokernel"
	}
	return "directpath"
}

// CaladanParams configures the Caladan baseline model: FCFS
// run-to-completion with RSS packet steering and work stealing.
type CaladanParams struct {
	// Workers is the number of worker cores (paper: 16).
	Workers int
	// Mode selects IOKernel or Directpath packet routing. The paper
	// evaluates both and reports the better one per workload; the
	// sweep driver in this package does the same.
	Mode CaladanMode
	// IOKCost is IOKernel time per packet direction.
	IOKCost sim.Time
	// DirectCost is extra worker time per request in directpath mode
	// (RX descriptor handling, parsing, TX).
	DirectCost sim.Time
	// StealCost is the latency for an idle worker to steal a queued
	// job from another core.
	StealCost sim.Time
	// RXQueue bounds the IOKernel's unprocessed-packet backlog, in
	// packets; arrivals beyond it drop as at a full NIC RX ring.
	RXQueue int
	// RTT is the simulated network round trip for end-to-end latency.
	RTT sim.Time
}

// NewCaladanParams returns calibrated defaults in the given mode.
func NewCaladanParams(mode CaladanMode) CaladanParams {
	return CaladanParams{
		Workers:    16,
		Mode:       mode,
		IOKCost:    70 * sim.Nanosecond,
		DirectCost: 260 * sim.Nanosecond,
		StealCost:  150 * sim.Nanosecond,
		RTT:        sim.Micros(8),
		RXQueue:    2048,
	}
}

// Caladan is the FCFS run-to-completion baseline with work stealing.
type Caladan struct{ P CaladanParams }

// NewCaladan returns a Caladan machine.
func NewCaladan(p CaladanParams) *Caladan {
	if p.Workers <= 0 {
		panic("cluster: invalid Caladan parameters")
	}
	return &Caladan{P: p}
}

// Name implements Machine.
func (c *Caladan) Name() string { return "Caladan-" + c.P.Mode.String() }

// calWorker is one worker core and the target of its events. A busy
// worker has exactly one event in flight for job j: the end of a steal
// (stealing set) after which j starts, or j's completion.
type calWorker struct {
	r        *calRun
	w        int
	queue    core.FIFO[*job]
	busy     bool
	j        *job
	stealing bool
}

// Fire implements sim.Handler.
//
//simvet:hotpath
func (wk *calWorker) Fire(sim.EventID) {
	if wk.stealing {
		wk.stealing = false
		wk.r.runJob(wk.w, wk.j)
		return
	}
	wk.r.complete(wk)
}

// iokPacket is a request the IOKernel holds: its RX lane and the
// worker RSS steered it to.
type iokPacket struct {
	j       *job
	lane, w int
}

// calIOKernel is the IOKernel core, a serial server between NIC and
// workers: each packet direction costs IOKCost, and forwarded requests
// leave in arrival order, so the pending FIFO's head is always the
// packet whose forwarding event fires next.
type calIOKernel struct {
	r         *calRun
	busyUntil sim.Time
	pending   core.FIFO[iokPacket]
}

// occupy books one packet's worth of IOKernel time and returns when
// the IOKernel is done with it.
func (k *calIOKernel) occupy(now, cost sim.Time) sim.Time {
	if k.busyUntil < now {
		k.busyUntil = now
	}
	k.busyUntil += cost
	return k.busyUntil
}

// Fire implements sim.Handler: the IOKernel forwards the head packet.
//
//simvet:hotpath
func (k *calIOKernel) Fire(sim.EventID) {
	p, _ := k.pending.Pop()
	k.r.adm.release(p.lane, p.j.tenant)
	k.r.deliver(p.w, p.j)
}

type calRun struct {
	machineRun
	basePolicy
	m       *Caladan
	workers []calWorker
	idle    []int // idle worker indices (spinning, ready to steal)
	rss     core.RSS
	rand    *rng.Rand
	iok     calIOKernel
}

// newRun builds the run struct and its RX bound: only the IOKernel is
// a bounded serial stage; directpath workers read the NIC directly, so
// their arrive path goes through an unbounded gate (limit 0) and never
// drops.
func (c *Caladan) newRun(cfg RunConfig) (*calRun, int) {
	r := &calRun{
		m:       c,
		workers: make([]calWorker, c.P.Workers),
		rand:    rng.New(cfg.Seed ^ 0xca1ada),
	}
	limit := 0
	if c.P.Mode == IOKernel {
		limit = c.P.RXQueue
	}
	for w := range r.workers {
		r.workers[w] = calWorker{r: r, w: w}
		r.idle = append(r.idle, w)
	}
	r.iok.r = r
	return r, limit
}

// Run implements Machine.
func (c *Caladan) Run(cfg RunConfig) *Result {
	r, limit := c.newRun(cfg)
	r.init(cfg, r, cfg.Stream(rng.New(cfg.Seed)), limit, 1)
	return r.run(c.Name(), c.P.RTT)
}

// NewNode binds the machine to a shared engine as a cluster Node (the
// rack-fleet form; see Entry.NewNode). One mode per node: BestCaladan's
// run-both-and-pick cannot share an engine, so "caladan-ws" has no node
// form.
func (c *Caladan) NewNode(eng *sim.Engine, cfg RunConfig) Node {
	r, limit := c.newRun(cfg)
	r.attach(eng, cfg, r, limit, 1)
	r.bind(c.Name(), c.P.Workers, c.P.RTT)
	return r
}

// inflate implements machinePolicy: in directpath mode packet
// processing happens on the worker, so it rides on the job's demand.
func (r *calRun) inflate(s sim.Time) sim.Time {
	if r.m.P.Mode == Directpath {
		return s + r.m.P.DirectCost
	}
	return s
}

// admit implements machinePolicy: RSS steers the packet; in IOKernel
// mode the IOKernel is a serial server between NIC and workers, and
// the packet holds its ring slot until the IOKernel forwards it.
func (r *calRun) admit(lane int, j *job) {
	w := r.rss.Steer(j.id, len(r.workers))
	if r.m.P.Mode == IOKernel {
		at := r.iok.occupy(r.eng.Now(), r.m.P.IOKCost)
		r.iok.pending.Push(iokPacket{j: j, lane: lane, w: w})
		r.eng.At(at, &r.iok)
	} else {
		r.deliver(w, j)
	}
}

// deliver places a job on its RSS-steered worker's queue. If that
// worker is busy but another is idle and spinning, the idle worker
// steals the job after the steal latency — Caladan's work stealing
// keeps cores busy whenever any work exists.
//
// Dispatch records where RSS (or the steal at delivery) bound the job;
// under later stealing the quantum may run on a different core than
// the one dispatched to, which the timeline shows faithfully.
//
//simvet:hotpath
func (r *calRun) deliver(w int, j *job) {
	wk := &r.workers[w]
	if !wk.busy {
		wk.busy = true
		r.removeIdle(w)
		r.met.emit(r.eng.Now(), obs.Dispatch, j.id, j.class, int32(w))
		r.runJob(w, j)
		return
	}
	if len(r.idle) > 0 {
		// A spinning idle worker steals it.
		i := r.rand.Intn(len(r.idle))
		thief := r.idle[i]
		r.idle[i] = r.idle[len(r.idle)-1]
		r.idle = r.idle[:len(r.idle)-1]
		r.met.emit(r.eng.Now(), obs.Dispatch, j.id, j.class, int32(thief))
		r.steal(thief, j)
		return
	}
	r.met.emit(r.eng.Now(), obs.Dispatch, j.id, j.class, int32(w))
	wk.queue.Push(j)
}

func (r *calRun) removeIdle(w int) {
	for i, v := range r.idle {
		if v == w {
			r.idle[i] = r.idle[len(r.idle)-1]
			r.idle = r.idle[:len(r.idle)-1]
			return
		}
	}
}

// steal has worker w take j from another core: j starts once the
// steal latency has passed.
//
//simvet:hotpath
func (r *calRun) steal(w int, j *job) {
	wk := &r.workers[w]
	wk.busy = true
	wk.j, wk.stealing = j, true
	r.eng.After(r.m.P.StealCost, wk)
}

// runJob executes j to completion on worker w (FCFS, no preemption):
// exactly one quantum per task, ending in finish.
//
//simvet:hotpath
func (r *calRun) runJob(w int, j *job) {
	r.met.emit(r.eng.Now(), obs.QuantumStart, j.id, j.class, int32(w))
	wk := &r.workers[w]
	wk.j = j
	r.eng.After(j.remain, wk)
}

// complete retires the worker's job and moves on to its next one.
//
//simvet:hotpath
func (r *calRun) complete(wk *calWorker) {
	j := wk.j
	wk.j = nil
	now := r.eng.Now()
	r.met.emit(now, obs.QuantumEnd, j.id, j.class, int32(wk.w))
	r.met.emit(now, obs.Finish, j.id, j.class, int32(wk.w))
	r.met.record(j, now)
	r.pool.put(j)
	if r.m.P.Mode == IOKernel {
		// Response transits the IOKernel; it does not block the
		// worker, but consumes IOKernel capacity.
		r.iok.occupy(now, r.m.P.IOKCost)
	}
	r.next(wk.w)
}

// next finds the worker's next job: its own queue first, then stealing
// from the most loaded victim, else it goes idle and spins.
//
//simvet:hotpath
func (r *calRun) next(w int) {
	wk := &r.workers[w]
	if j, ok := wk.queue.Pop(); ok {
		r.runJob(w, j)
		return
	}
	// Steal: scan for a victim with queued work (cost modelled in the
	// steal latency).
	victim := -1
	best := 0
	for v := range r.workers {
		if v != w && r.workers[v].queue.Len() > best {
			best = r.workers[v].queue.Len()
			victim = v
		}
	}
	if victim >= 0 {
		j, _ := r.workers[victim].queue.Pop()
		r.steal(w, j)
		return
	}
	wk.busy = false
	r.idle = append(r.idle, w)
}

var _ Machine = (*Caladan)(nil)

// bestCaladan adapts BestCaladan to the Machine interface so sweep
// runners can treat "the better of Caladan's two modes" as one system.
type bestCaladan struct{ class string }

func (b bestCaladan) Run(cfg RunConfig) *Result { return BestCaladan(cfg, b.class) }
func (b bestCaladan) Name() string              { return "Caladan" }

// NewBestCaladan returns a Machine that runs every configuration under
// both Caladan modes and reports the better result, judged as in
// BestCaladan. It holds no state, so one value is safe to share — but
// sweep factories should still construct it per point, like any other
// machine.
func NewBestCaladan(class string) Machine { return bestCaladan{class: class} }

// BestCaladan runs the configuration under both modes and returns the
// better result, judged by the p99.9 sojourn of the given class (or
// overall throughput if class is empty) — mirroring §5.1's "we evaluate
// Caladan under both modes and report the better one". With an obs
// recorder attached, the two judging runs go untraced and the winning
// mode is deterministically re-run into the recorder, so the timeline
// holds exactly one machine's events.
func BestCaladan(cfg RunConfig, class string) *Result {
	if cfg.Obs != nil {
		rec := cfg.Obs
		cfg.Obs = nil
		winner := BestCaladan(cfg, class)
		mode := Directpath
		if winner.System == "Caladan-iokernel" {
			mode = IOKernel
		}
		cfg.Obs = rec
		return NewCaladan(NewCaladanParams(mode)).Run(cfg)
	}
	iok := NewCaladan(NewCaladanParams(IOKernel)).Run(cfg)
	dp := NewCaladan(NewCaladanParams(Directpath)).Run(cfg)
	if class == "" {
		if iok.Throughput >= dp.Throughput {
			return iok
		}
		return dp
	}
	ic, dc := iok.Class(class), dp.Class(class)
	switch {
	case ic == nil || ic.Count == 0:
		return dp
	case dc == nil || dc.Count == 0:
		return iok
	case ic.Sojourn.P999() <= dc.Sojourn.P999():
		return iok
	default:
		return dp
	}
}

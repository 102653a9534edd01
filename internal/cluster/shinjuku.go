package cluster

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ShinjukuParams configures the Shinjuku baseline model: centralized
// single-queue scheduling where a dispatcher core processes packets,
// assigns jobs, and preempts workers with Dune-based hardware
// interrupts (§5.1, [34]).
//
// The cost constants are calibrated to the paper's observations: a
// centralized dispatcher core sustains ≈5Mrps of plain request
// processing (§6), and the interrupt path costs ≈1µs on the preempted
// worker (§1). Each constant is an explicit knob so ablations can test
// sensitivity.
type ShinjukuParams struct {
	// Workers is the number of worker cores (paper: 16).
	Workers int
	// Quantum is the preemption interval. The paper runs Shinjuku at
	// its per-workload sweet spot: 5µs for the bimodals, 10µs for
	// TPC-C and Exp(1), 15µs for RocksDB.
	Quantum sim.Time
	// NetCost is dispatcher time per incoming request (RX, parse,
	// enqueue).
	NetCost sim.Time
	// RespCost is dispatcher/net-worker time per outgoing response.
	RespCost sim.Time
	// SchedCost is dispatcher time to pick and hand a job to a worker.
	SchedCost sim.Time
	// IPICost is dispatcher time to post one preemption interrupt (a
	// posted-interrupt write is much cheaper than packet processing).
	IPICost sim.Time
	// RXQueue bounds the backlog of unprocessed dispatcher work, in
	// requests; arrivals beyond it are dropped, as a saturated NIC RX
	// ring drops packets. Without this bound an overloaded centralized
	// dispatcher would starve its scheduling ops behind an unbounded
	// packet backlog, which no real system does.
	RXQueue int
	// InterruptOverhead is worker time lost per received interrupt
	// (ring transition, context save/restore — ≈1µs under Dune).
	InterruptOverhead sim.Time
	// RTT is the simulated network round trip for end-to-end latency.
	RTT sim.Time
}

// NewShinjukuParams returns the calibrated defaults with the given
// quantum.
func NewShinjukuParams(quantum sim.Time) ShinjukuParams {
	return ShinjukuParams{
		Workers:           16,
		Quantum:           quantum,
		NetCost:           190 * sim.Nanosecond,
		RespCost:          90 * sim.Nanosecond,
		SchedCost:         110 * sim.Nanosecond,
		IPICost:           25 * sim.Nanosecond,
		InterruptOverhead: sim.Micros(1),
		RTT:               sim.Micros(8),
		RXQueue:           2048,
	}
}

// Shinjuku is the centralized interrupt-driven baseline.
type Shinjuku struct {
	P    ShinjukuParams
	name string
}

// NewShinjuku returns a Shinjuku machine.
func NewShinjuku(p ShinjukuParams) *Shinjuku {
	if p.Workers <= 0 || p.Quantum <= 0 {
		panic("cluster: invalid Shinjuku parameters")
	}
	return &Shinjuku{P: p, name: "Shinjuku"}
}

// Name implements Machine.
func (s *Shinjuku) Name() string { return s.name }

// sjWorker is one worker core and the target of its events. The
// engine has no event cancellation, so a mount's completion and
// quantum-timer events stay queued after the job leaves the core; the
// worker keeps the IDs of the events still meant for it — zero when
// none is — and ignores any other event as stale.
type sjWorker struct {
	r       *sjRun
	w       int
	current *job
	started sim.Time // when the current dispatch began running
	// done and timer are the current mount's completion and quantum
	// timer events. done doubles as the mount's identity: a posted
	// IPI carries it so a late interrupt can tell its mount is over.
	done, timer sim.EventID
	// resume is the end of a preemption's interrupt overhead, after
	// which preempted rejoins the central queue.
	resume    sim.EventID
	preempted *job
}

// Fire implements sim.Handler.
//
//simvet:hotpath
func (wk *sjWorker) Fire(id sim.EventID) {
	switch id {
	case wk.done:
		wk.r.complete(wk.w, wk.current)
	case wk.timer:
		// The dispatcher posts the IPI when it gets to this op; until
		// then the worker keeps executing the job.
		wk.timer = 0
		wk.r.dispatcherOp(dispOp{kind: opIPI, cost: wk.r.m.P.IPICost, w: wk.w, mount: wk.done})
	case wk.resume:
		wk.resume = 0
		j := wk.preempted
		wk.preempted = nil
		wk.r.queue.Push(j)
		wk.r.idle = append(wk.r.idle, wk.w)
		wk.r.tryAssign()
	}
}

type sjRun struct {
	machineRun
	basePolicy
	m       *Shinjuku
	queue   core.FIFO[*job]
	workers []sjWorker
	idle    []int // indices of idle workers
	disp    sjDispatcher

	// achieved averages the realized preemption intervals, used by the
	// Figure 16 dispatcher-scalability experiment.
	achieved stats.RunningMean
}

// dispOpKind names the work items of Shinjuku's dispatcher core.
type dispOpKind uint8

const (
	opPacket   dispOpKind = iota // process an incoming request (lane, j)
	opAssign                     // hand j to idle worker w
	opIPI                        // interrupt worker w, if mount still runs
	opResponse                   // send a completed request's response
)

// dispOp is one queued dispatcher work item, held by value.
type dispOp struct {
	kind  dispOpKind
	cost  sim.Time
	lane  int         // opPacket: the request's RX lane
	w     int         // opAssign, opIPI: the target worker
	j     *job        // opPacket, opAssign
	mount sim.EventID // opIPI: the target worker's mount (its done ID)
}

// sjDispatcher is the dispatcher core: a serial server over two op
// classes. Scheduling work (assignments, IPIs) takes priority over
// packet processing, as the real dispatcher's loop checks preemption
// timers and worker states before polling more packets. Without the
// priority, an overloaded dispatcher would starve scheduling behind
// its RX backlog entirely. It is the target of the event that ends
// the op in service, cur.
type sjDispatcher struct {
	r        *sjRun
	schedOps core.FIFO[dispOp]
	netOps   core.FIFO[dispOp]
	busy     bool
	cur      dispOp
}

// dispatcherOp enqueues work on the dispatcher core. Scheduling ops
// are served before packet ops.
//
//simvet:hotpath
func (r *sjRun) dispatcherOp(op dispOp) {
	if op.kind == opPacket || op.kind == opResponse {
		r.disp.netOps.Push(op)
	} else {
		r.disp.schedOps.Push(op)
	}
	r.disp.serve()
}

// serve starts the next op if the dispatcher is free.
//
//simvet:hotpath
func (d *sjDispatcher) serve() {
	if d.busy {
		return
	}
	op, ok := d.schedOps.Pop()
	if !ok {
		op, ok = d.netOps.Pop()
	}
	if !ok {
		return
	}
	d.busy = true
	d.cur = op
	d.r.eng.After(op.cost, d)
}

// Fire implements sim.Handler: the op in service is done.
//
//simvet:hotpath
func (d *sjDispatcher) Fire(sim.EventID) {
	op := d.cur
	d.cur = dispOp{}
	r := d.r
	switch op.kind {
	case opPacket:
		r.adm.release(op.lane, op.j.tenant)
		r.enqueue(op.j)
	case opAssign:
		r.startOn(op.w, op.j)
	case opIPI:
		if r.workers[op.w].done == op.mount {
			r.preempt(op.w)
		} // else the job finished while the IPI was in flight
	}
	d.busy = false
	d.serve()
}

// Run implements Machine.
func (s *Shinjuku) Run(cfg RunConfig) *Result {
	res, _ := s.run(cfg)
	return res
}

// RunMeasured also returns the mean realized preemption interval (the
// "average quantum scheduled by the dispatcher" of §5.6).
func (s *Shinjuku) RunMeasured(cfg RunConfig) (*Result, stats.RunningMean) {
	return s.run(cfg)
}

func (s *Shinjuku) newRun() *sjRun {
	r := &sjRun{
		m:       s,
		workers: make([]sjWorker, s.P.Workers),
	}
	for w := range r.workers {
		r.workers[w] = sjWorker{r: r, w: w}
		r.idle = append(r.idle, w)
	}
	r.disp.r = r
	return r
}

func (s *Shinjuku) run(cfg RunConfig) (*Result, stats.RunningMean) {
	r := s.newRun()
	// A saturated dispatcher drops packets at the RX ring. The ring
	// holds incoming requests only — outgoing responses use their own
	// TX descriptors.
	r.init(cfg, r, cfg.Stream(rng.New(cfg.Seed)), s.P.RXQueue, 1)
	res := r.run(s.Name(), s.P.RTT)
	return res, r.achieved
}

// NewNode binds the machine to a shared engine as a cluster Node (the
// rack-fleet form; see Entry.NewNode).
func (s *Shinjuku) NewNode(eng *sim.Engine, cfg RunConfig) Node {
	r := s.newRun()
	r.attach(eng, cfg, r, s.P.RXQueue, 1)
	r.bind(s.Name(), s.P.Workers, s.P.RTT)
	return r
}

// admit implements machinePolicy: the request occupies its RX slot
// until the dispatcher's packet-processing op finishes with it.
//
//simvet:hotpath
func (r *sjRun) admit(lane int, j *job) {
	r.dispatcherOp(dispOp{kind: opPacket, cost: r.m.P.NetCost, lane: lane, j: j})
}

// enqueue adds a job to the central queue and, if a worker is idle,
// issues the dispatcher's assignment op.
//
//simvet:hotpath
func (r *sjRun) enqueue(j *job) {
	r.queue.Push(j)
	r.tryAssign()
}

//simvet:hotpath
func (r *sjRun) tryAssign() {
	if len(r.idle) == 0 || r.queue.Len() == 0 {
		return
	}
	w := r.idle[len(r.idle)-1]
	r.idle = r.idle[:len(r.idle)-1]
	j, _ := r.queue.Pop()
	r.dispatcherOp(dispOp{kind: opAssign, cost: r.m.P.SchedCost, w: w, j: j})
}

// startOn begins executing j on worker w. Two events race: natural
// completion, and a preemption interrupt that the dispatcher posts at
// quantum expiry (the interrupt lands late if the dispatcher is busy —
// the job keeps running meanwhile, which is exactly the quantum
// inflation Figure 16 measures).
//
//simvet:hotpath
func (r *sjRun) startOn(w int, j *job) {
	wk := &r.workers[w]
	wk.current = j
	wk.started = r.eng.Now()
	// Every mount is a fresh dispatcher decision — a preempted job is
	// re-dispatched, unlike TQ where it stays resident on its worker.
	r.met.emit(wk.started, obs.Dispatch, j.id, j.class, int32(w))
	r.met.emit(wk.started, obs.QuantumStart, j.id, j.class, int32(w))

	wk.done = r.eng.After(j.remain, wk)
	if j.remain > r.m.P.Quantum {
		wk.timer = r.eng.After(r.m.P.Quantum, wk)
	}
}

// unmount clears the worker's current mount, disowning its pending
// completion and timer events.
func (wk *sjWorker) unmount() {
	wk.current = nil
	wk.done, wk.timer = 0, 0
}

//simvet:hotpath
func (r *sjRun) complete(w int, j *job) {
	wk := &r.workers[w]
	wk.unmount()
	r.met.emit(r.eng.Now(), obs.QuantumEnd, j.id, j.class, int32(w))
	r.met.emit(r.eng.Now(), obs.Finish, j.id, j.class, int32(w))
	r.met.record(j, r.eng.Now())
	r.pool.put(j)
	// Response goes out through the networking half of the centralized
	// core.
	r.dispatcherOp(dispOp{kind: opResponse, cost: r.m.P.RespCost})
	r.idle = append(r.idle, w)
	r.tryAssign()
}

// preempt interrupts worker w: the job has run since wk.started, the
// worker pays the interrupt overhead, and the job rejoins the tail of
// the central queue.
//
//simvet:hotpath
func (r *sjRun) preempt(w int) {
	wk := &r.workers[w]
	j := wk.current
	ran := r.eng.Now() - wk.started
	if ran >= j.remain {
		// The job finished at exactly this instant; treat as complete.
		j.remain = 0
		r.complete(w, j)
		return
	}
	r.achieved.Add(float64(ran))
	j.remain -= ran
	wk.unmount()
	r.met.emit(r.eng.Now(), obs.QuantumEnd, j.id, j.class, int32(w))
	r.met.emit(r.eng.Now(), obs.Preempt, j.id, j.class, int32(w))
	wk.preempted = j
	wk.resume = r.eng.After(r.m.P.InterruptOverhead, wk)
}

var _ Machine = (*Shinjuku)(nil)

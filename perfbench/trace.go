package main

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// ringCap bounds one operation's recorded timeline. The largest
// operation (the top rack8-sew rate) records about 3.5M events; a
// larger timeline is truncated and reported as such, never silently.
const ringCap = 1 << 23

// replayCap is the capacity of the ring emission is replayed into; it
// is reset whenever full, so the replay stays cache-sized.
const replayCap = 1 << 16

// replayBatch is the kernel's emission batch size (cluster's
// obsBatchCap), which the replay of a batched timeline reproduces.
const replayBatch = 256

// traceRecorder is the traced pass's RunConfig.Obs: an obs.Ring that
// also counts events by kind. It implements EmitBatch, so the kernel's
// batched emission path stays in use.
type traceRecorder struct {
	ring    *obs.Ring
	replay  *obs.Ring
	kinds   [obs.KindCount]uint64
	batched bool // the run emitted through EmitBatch
}

func newTraceRecorder() *traceRecorder {
	return &traceRecorder{ring: obs.NewRing(ringCap), replay: obs.NewRing(replayCap)}
}

func (r *traceRecorder) reset() {
	r.ring.Reset()
	r.kinds = [obs.KindCount]uint64{}
	r.batched = false
}

func (r *traceRecorder) Emit(e obs.Event) {
	r.kinds[e.Kind]++
	r.ring.Emit(e)
}

func (r *traceRecorder) EmitBatch(evs []obs.Event) {
	for _, e := range evs {
		r.kinds[e.Kind]++
	}
	r.batched = true
	r.ring.EmitBatch(evs)
}

// replayEmit re-emits the recorded timeline into a fresh ring through
// the path the run used — EmitBatch in kernel-sized batches, or Emit
// per event (rack nodes emit per event) — and returns the time taken.
// Timing the emissions in the run itself would cost more than the
// per-event emission it measures.
func (r *traceRecorder) replayEmit() time.Duration {
	evs := r.ring.Events()
	r.replay.Reset()
	start := time.Now()
	if r.batched {
		for i := 0; i < len(evs); i += replayBatch {
			j := min(i+replayBatch, len(evs))
			if r.replay.Len()+j-i > replayCap {
				r.replay.Reset()
			}
			r.replay.EmitBatch(evs[i:j])
		}
	} else {
		for _, e := range evs {
			if r.replay.Len() == replayCap {
				r.replay.Reset()
			}
			r.replay.Emit(e)
		}
	}
	return time.Since(start)
}

// validate runs obs.Validate on the recorded timeline and, when the
// recording is complete, obs.Conserved. A truncated timeline is a
// prefix, which Validate still checks soundly but Conserved cannot.
func (r *traceRecorder) validate() error {
	evs := r.ring.Events()
	if err := obs.Validate(evs); err != nil {
		return fmt.Errorf("timeline: %w", err)
	}
	if r.ring.Truncated() {
		return nil
	}
	if err := obs.Conserved(evs); err != nil {
		return fmt.Errorf("timeline: %w", err)
	}
	return nil
}

// ringPool hands each concurrently running traced operation its own
// recorder and reuses the storage across operations.
type ringPool chan *traceRecorder

func newRingPool(n int) ringPool {
	p := make(ringPool, n)
	for i := 0; i < n; i++ {
		p <- newTraceRecorder()
	}
	return p
}

func (p ringPool) get() *traceRecorder {
	r := <-p
	r.reset()
	return r
}

func (p ringPool) put(r *traceRecorder) { p <- r }

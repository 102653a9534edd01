package tqrt

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// spin busy-works for roughly d of *active* time (time parked at a
// probe does not count), probing every probeEvery of work.
func spin(y *Yield, d, probeEvery time.Duration) {
	var done time.Duration
	for done < d {
		start := nanotime()
		for nanotime()-start < probeEvery.Nanoseconds() {
		}
		done += time.Duration(nanotime() - start)
		y.Probe()
	}
}

func TestRunsAllTasks(t *testing.T) {
	rt := New(Config{Workers: 2, Coroutines: 4, Quantum: 100 * time.Microsecond})
	rt.Start()
	var done atomic.Int64
	const n = 200
	for i := 0; i < n; i++ {
		if err := rt.Submit(func(y *Yield) { done.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	rt.Stop()
	if done.Load() != n {
		t.Fatalf("completed %d/%d tasks", done.Load(), n)
	}
}

func TestSubmitAfterStopFails(t *testing.T) {
	rt := New(Config{Workers: 1})
	rt.Start()
	rt.Stop()
	if err := rt.Submit(func(y *Yield) {}); err != ErrStopped {
		t.Fatalf("Submit after Stop = %v, want ErrStopped", err)
	}
	if err := rt.TrySubmit(func(y *Yield) {}); err != ErrStopped {
		t.Fatalf("TrySubmit after Stop = %v, want ErrStopped", err)
	}
}

func TestWaitBlocksUntilDone(t *testing.T) {
	rt := New(Config{Workers: 2, Coroutines: 2, Quantum: time.Millisecond})
	rt.Start()
	defer rt.Stop()
	var done atomic.Int64
	for i := 0; i < 50; i++ {
		rt.Submit(func(y *Yield) {
			time.Sleep(100 * time.Microsecond)
			done.Add(1)
		})
	}
	rt.Wait()
	if done.Load() != 50 {
		t.Fatalf("Wait returned with %d/50 done", done.Load())
	}
}

func TestPreemptionInterleavesTasks(t *testing.T) {
	// One worker, two long tasks: with probing, both must make
	// progress in an interleaved fashion rather than serially.
	rt := New(Config{Workers: 1, Coroutines: 4, Quantum: 200 * time.Microsecond})
	rt.Start()
	defer rt.Stop()

	var aDone, bDone atomic.Int64
	start := time.Now()
	rt.Submit(func(y *Yield) {
		spin(y, 20*time.Millisecond, 20*time.Microsecond)
		aDone.Store(time.Since(start).Nanoseconds())
	})
	rt.Submit(func(y *Yield) {
		spin(y, 20*time.Millisecond, 20*time.Microsecond)
		bDone.Store(time.Since(start).Nanoseconds())
	})
	rt.Wait()
	a, b := aDone.Load(), bDone.Load()
	// Interleaved execution finishes both near 2x the single-task
	// time; serial FCFS would finish the first at ~1x and the second
	// at ~2x. Require the earlier finisher to land clearly past 1.4x.
	early := a
	if b < early {
		early = b
	}
	if early < (28 * time.Millisecond).Nanoseconds() {
		t.Fatalf("earliest completion at %v, want >28ms (interleaving)", time.Duration(early))
	}
}

func TestNoProbeMeansRunToCompletion(t *testing.T) {
	// A task that never probes cannot be preempted: the second task
	// waits for the first (documented FCFS-like behaviour).
	rt := New(Config{Workers: 1, Coroutines: 4, Quantum: 100 * time.Microsecond})
	rt.Start()
	defer rt.Stop()
	var order []int
	var mu atomic.Int32
	start := time.Now()
	rt.Submit(func(y *Yield) {
		for time.Since(start) < 5*time.Millisecond {
		}
		if mu.CompareAndSwap(0, 1) {
			order = append(order, 1)
		}
	})
	rt.Submit(func(y *Yield) {
		if mu.CompareAndSwap(1, 2) {
			order = append(order, 2)
		}
	})
	rt.Wait()
	if mu.Load() != 2 {
		t.Fatalf("tasks completed out of order: %v", order)
	}
}

func TestCriticalSectionDefersYield(t *testing.T) {
	rt := New(Config{Workers: 1, Coroutines: 2, Quantum: 50 * time.Microsecond})
	rt.Start()
	defer rt.Stop()
	violated := atomic.Bool{}
	inCritical := atomic.Bool{}
	rt.Submit(func(y *Yield) {
		y.BeginCritical()
		inCritical.Store(true)
		deadline := nanotime() + (2 * time.Millisecond).Nanoseconds()
		for nanotime() < deadline {
			y.Probe() // must not yield
		}
		inCritical.Store(false)
		y.EndCritical()
		y.Probe()
	})
	rt.Submit(func(y *Yield) {
		// If this runs while task 1 is inside its critical section,
		// the critical section was violated (single worker).
		if inCritical.Load() {
			violated.Store(true)
		}
	})
	rt.Wait()
	if violated.Load() {
		t.Fatal("second task ran during the first task's critical section")
	}
}

func TestEndCriticalUnmatchedPanics(t *testing.T) {
	rt := New(Config{Workers: 1})
	rt.Start()
	defer rt.Stop()
	got := make(chan any, 1)
	rt.Submit(func(y *Yield) {
		defer func() { got <- recover() }()
		y.EndCritical()
	})
	if v := <-got; v == nil {
		t.Fatal("unmatched EndCritical did not panic")
	}
	rt.Wait()
}

func TestZeroQuantumDisablesPreemption(t *testing.T) {
	rt := New(Config{Workers: 1, Coroutines: 2, Quantum: 0})
	rt.Start()
	defer rt.Stop()
	probes := 0
	rt.Submit(func(y *Yield) {
		for i := 0; i < 1000; i++ {
			y.Probe() // all no-ops
			probes++
		}
	})
	rt.Wait()
	if probes != 1000 {
		t.Fatalf("task did not complete its probes: %d", probes)
	}
}

func TestLoadSpreadsAcrossWorkers(t *testing.T) {
	// With JSQ, concurrent long tasks should occupy distinct workers.
	const workers = 4
	rt := New(Config{Workers: workers, Coroutines: 2, Quantum: time.Millisecond})
	rt.Start()
	defer rt.Stop()
	for i := 0; i < workers; i++ {
		rt.Submit(func(y *Yield) {
			time.Sleep(10 * time.Millisecond)
		})
	}
	// Give the dispatcher a moment, then verify queues are balanced:
	// no worker should hold more than 2 of the 4 tasks.
	time.Sleep(2 * time.Millisecond)
	lens := rt.QueueLens()
	total, max := 0, 0
	for _, l := range lens {
		total += l
		if l > max {
			max = l
		}
	}
	if total > 0 && max > 2 {
		t.Fatalf("JSQ left queues unbalanced: %v", lens)
	}
	rt.Wait()
}

func TestPoliciesAllComplete(t *testing.T) {
	for _, p := range []BalancePolicy{JSQMSQ, JSQRandom, RandomPolicy, PowerOfTwoPolicy} {
		rt := New(Config{Workers: 3, Coroutines: 2, Quantum: 100 * time.Microsecond, Policy: p, Seed: 42})
		rt.Start()
		var done atomic.Int64
		for i := 0; i < 100; i++ {
			rt.Submit(func(y *Yield) { done.Add(1) })
		}
		rt.Stop()
		if done.Load() != 100 {
			t.Fatalf("policy %d completed %d/100", p, done.Load())
		}
	}
}

func TestManyTasksManyWorkersStress(t *testing.T) {
	rt := New(Config{Workers: 4, Coroutines: 8, Quantum: 50 * time.Microsecond})
	rt.Start()
	var done atomic.Int64
	const n = 2000
	for i := 0; i < n; i++ {
		i := i
		rt.Submit(func(y *Yield) {
			if i%10 == 0 {
				spin(y, 200*time.Microsecond, 10*time.Microsecond)
			}
			done.Add(1)
		})
	}
	rt.Stop()
	if done.Load() != n {
		t.Fatalf("completed %d/%d", done.Load(), n)
	}
}

func TestLASPrefersFreshTasks(t *testing.T) {
	// One worker; a long task accumulates quanta, then a fresh short
	// task arrives. With LAS the fresh task (0 attained quanta) runs
	// to completion as soon as the long task yields, without waiting
	// for round-robin fairness.
	rt := New(Config{Workers: 1, Coroutines: 4, Quantum: 100 * time.Microsecond, LAS: true})
	rt.Start()
	defer rt.Stop()
	var longDone, shortDone atomic.Int64
	start := time.Now()
	rt.Submit(func(y *Yield) {
		spin(y, 15*time.Millisecond, 20*time.Microsecond)
		longDone.Store(time.Since(start).Nanoseconds())
	})
	time.Sleep(2 * time.Millisecond)
	rt.Submit(func(y *Yield) {
		spin(y, 100*time.Microsecond, 20*time.Microsecond)
		shortDone.Store(time.Since(start).Nanoseconds())
	})
	rt.Wait()
	if shortDone.Load() >= longDone.Load() {
		t.Fatalf("LAS did not let the short task finish first: short=%v long=%v",
			time.Duration(shortDone.Load()), time.Duration(longDone.Load()))
	}
}

// TestRunQueueOrder pins the worker's run-queue ranks: without LAS
// every slot ranks 0 and pops in push order (round-robin PS); with LAS
// the slot whose task has attained the fewest quanta pops first, ties
// in push order.
func TestRunQueueOrder(t *testing.T) {
	attained := []int64{3, 0, 5, 0}
	for _, tc := range []struct {
		las  bool
		want []int
	}{
		{false, []int{0, 1, 2, 3}},
		{true, []int{1, 3, 0, 2}},
	} {
		w := &worker{las: tc.las}
		for _, q := range attained {
			w.coros = append(w.coros, &coro{quanta: q})
		}
		for slot := range w.coros {
			w.pushRunnable(slot)
		}
		for i, want := range tc.want {
			if got, ok := w.popRunnable(); !ok || got != want {
				t.Fatalf("las=%v pop %d = (%d, %v), want (%d, true)", tc.las, i, got, ok, want)
			}
		}
		if w.run.Len() != 0 {
			t.Fatalf("las=%v: %d slots left after draining", tc.las, w.run.Len())
		}
	}
}

func TestLASCompletesEverything(t *testing.T) {
	rt := New(Config{Workers: 2, Coroutines: 4, Quantum: 50 * time.Microsecond, LAS: true})
	rt.Start()
	var done atomic.Int64
	for i := 0; i < 300; i++ {
		rt.Submit(func(y *Yield) {
			spin(y, 50*time.Microsecond, 10*time.Microsecond)
			done.Add(1)
		})
	}
	rt.Stop()
	if done.Load() != 300 {
		t.Fatalf("LAS completed %d/300", done.Load())
	}
}

func TestStatsSnapshot(t *testing.T) {
	rt := New(Config{Workers: 2, Coroutines: 4, Quantum: 50 * time.Microsecond})
	rt.Start()
	const n = 120
	for i := 0; i < n; i++ {
		rt.Submit(func(y *Yield) {
			spin(y, 100*time.Microsecond, 20*time.Microsecond)
		})
	}
	rt.Wait()
	st := rt.Stats()
	if got := st.Completed(); got != n {
		t.Fatalf("Stats.Completed = %d, want %d", got, n)
	}
	var assigned uint64
	for _, w := range st.Workers {
		assigned += w.Assigned
		if w.Assigned != w.Finished {
			t.Fatalf("worker counters unreconciled after Wait: %+v", w)
		}
		if w.ServicedQuanta != 0 {
			t.Fatalf("serviced-quanta statistic nonzero with no current tasks: %+v", w)
		}
	}
	if assigned != n {
		t.Fatalf("assigned %d, want %d", assigned, n)
	}
	rt.Stop()
}

func TestTrySubmitFailsWhenFull(t *testing.T) {
	// Tiny inbox, workers blocked on a long task: TrySubmit must
	// eventually report a full dispatcher rather than blocking.
	rt := New(Config{Workers: 1, Coroutines: 1, Quantum: 0, QueueCap: 2})
	rt.Start()
	defer rt.Stop()
	release := make(chan struct{})
	rt.Submit(func(y *Yield) { <-release })
	sawFull := false
	for i := 0; i < 100; i++ {
		if err := rt.TrySubmit(func(y *Yield) { <-release }); err != nil {
			sawFull = true
			break
		}
	}
	close(release)
	if !sawFull {
		t.Fatal("TrySubmit never reported a full inbox")
	}
	rt.Wait()
}

func TestPinnedWorkersComplete(t *testing.T) {
	rt := New(Config{Workers: 2, Coroutines: 4, Quantum: 100 * time.Microsecond, PinWorkers: true})
	rt.Start()
	var done atomic.Int64
	for i := 0; i < 100; i++ {
		rt.Submit(func(y *Yield) { done.Add(1) })
	}
	rt.Stop()
	if done.Load() != 100 {
		t.Fatalf("pinned workers completed %d/100", done.Load())
	}
}

func TestStopWithInFlightProbingTasks(t *testing.T) {
	// Stop while tasks are mid-execution and actively probing: the
	// shutdown sequence (reject new work, wait for in-flight tasks,
	// drain the dispatcher, join the workers) must not race or deadlock
	// against yields in progress. Run under -race across worker counts;
	// submissions race with Stop from a second goroutine so arrivals
	// land on both sides of the stopped flag.
	for _, workers := range []int{1, 2, 4, 8} {
		rt := New(Config{Workers: workers, Coroutines: 4, Quantum: 20 * time.Microsecond})
		rt.Start()
		var started, done atomic.Int64
		var submitted atomic.Int64
		stopReq := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				err := rt.Submit(func(y *Yield) {
					started.Add(1)
					spin(y, 300*time.Microsecond, 10*time.Microsecond)
					done.Add(1)
				})
				if err != nil {
					return // Stop won the race; ErrStopped is the contract.
				}
				submitted.Add(1)
				if i == 2*workers {
					close(stopReq) // enough in flight to make Stop contend
				}
			}
		}()
		<-stopReq
		rt.Stop()
		wg.Wait()
		if got, want := done.Load(), submitted.Load(); got != want {
			t.Fatalf("workers=%d: Stop lost tasks: %d done of %d accepted", workers, got, want)
		}
		if started.Load() == 0 {
			t.Fatalf("workers=%d: no task ever ran", workers)
		}
		if err := rt.Submit(func(y *Yield) {}); err != ErrStopped {
			t.Fatalf("workers=%d: Submit after Stop = %v, want ErrStopped", workers, err)
		}
	}
}

func TestDoubleStopIsSafe(t *testing.T) {
	rt := New(Config{Workers: 1})
	rt.Start()
	rt.Stop()
	rt.Stop() // must not panic or deadlock
}

func BenchmarkProbeNoYield(b *testing.B) {
	y := &Yield{quantum: int64(time.Hour)}
	y.start = nanotime()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y.Probe()
	}
}

func BenchmarkSubmitToCompletion(b *testing.B) {
	rt := New(Config{Workers: 2, Coroutines: 8, Quantum: 100 * time.Microsecond})
	rt.Start()
	defer rt.Stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Submit(func(y *Yield) {})
	}
	rt.Wait()
}

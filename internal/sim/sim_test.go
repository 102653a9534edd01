package sim

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// call adapts a plain function to a Handler, for tests that only need
// a side effect at an instant.
type call func()

func (f call) Fire(EventID) { f() }

// idRecorder records the ID of every event it fires.
type idRecorder struct{ fired []EventID }

func (r *idRecorder) Fire(id EventID) { r.fired = append(r.fired, id) }

func TestFireReceivesScheduledID(t *testing.T) {
	e := New()
	rec := &idRecorder{}
	var want []EventID
	for _, at := range []Time{30, 10, 20, 10} {
		want = append(want, e.At(at, rec))
	}
	if want[0] == 0 {
		t.Fatal("At returned the zero EventID, which resources use as \"none\"")
	}
	for i := 1; i < len(want); i++ {
		if want[i] <= want[i-1] {
			t.Fatalf("IDs not increasing in scheduling order: %v", want)
		}
	}
	e.Run()
	// Fired in (at, seq) order: 10 (second push), 10 (fourth), 20, 30.
	order := []EventID{want[1], want[3], want[2], want[0]}
	if len(rec.fired) != len(order) {
		t.Fatalf("fired %v, want %v", rec.fired, order)
	}
	for i := range order {
		if rec.fired[i] != order[i] {
			t.Fatalf("fired %v, want %v", rec.fired, order)
		}
	}
}

func TestRunsInTimestampOrder(t *testing.T) {
	e := New()
	var got []Time
	for _, at := range []Time{30, 10, 20, 5, 25} {
		at := at
		e.At(at, call(func() { got = append(got, e.Now()) }))
	}
	e.Run()
	want := []Time{5, 10, 20, 25, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d ran at %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, call(func() { order = append(order, i) }))
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events reordered: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := New()
	var fired Time = -1
	e.At(50, call(func() {
		e.After(25, call(func() { fired = e.Now() }))
	}))
	e.Run()
	if fired != 75 {
		t.Fatalf("After fired at %d, want 75", fired)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	e := New()
	e.At(100, call(func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, call(func() {}))
	}))
	e.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	e.After(-1, call(func() {}))
}

func TestHaltStopsRun(t *testing.T) {
	e := New()
	count := 0
	for i := Time(1); i <= 10; i++ {
		e.At(i, call(func() {
			count++
			if count == 3 {
				e.Halt()
			}
		}))
	}
	e.Run()
	if count != 3 {
		t.Fatalf("ran %d events after Halt, want 3", count)
	}
	if e.Pending() != 7 {
		t.Fatalf("Pending = %d after halt, want 7", e.Pending())
	}
}

func TestRunUntilRespectsDeadline(t *testing.T) {
	e := New()
	var ran []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, call(func() { ran = append(ran, at) }))
	}
	end := e.RunUntil(25)
	if end != 25 {
		t.Fatalf("RunUntil returned %d, want 25", end)
	}
	if len(ran) != 2 || ran[0] != 10 || ran[1] != 20 {
		t.Fatalf("RunUntil ran %v, want [10 20]", ran)
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	// Resuming processes the remainder.
	e.Run()
	if len(ran) != 4 {
		t.Fatalf("resume ran %v", ran)
	}
}

func TestRunReturnsFinalTime(t *testing.T) {
	e := New()
	e.At(123, call(func() {}))
	if end := e.Run(); end != 123 {
		t.Fatalf("Run returned %d, want 123", end)
	}
}

func TestHeapOrderProperty(t *testing.T) {
	// Property: any multiset of timestamps is drained in sorted order.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		e := New()
		n := 200
		want := make([]Time, n)
		var got []Time
		for i := 0; i < n; i++ {
			at := Time(r.Uint64n(1000))
			want[i] = at
			e.At(at, call(func() { got = append(got, e.Now()) }))
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		e.Run()
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMicrosConversion(t *testing.T) {
	if got := Micros(2.5); got != 2500 {
		t.Fatalf("Micros(2.5) = %d, want 2500", got)
	}
	if got := Micros(0.0005); got != 1 {
		t.Fatalf("Micros(0.0005) = %d, want 1 (rounded)", got)
	}
	if got := (2500 * Nanosecond).Micros(); got != 2.5 {
		t.Fatalf("Time.Micros = %v, want 2.5", got)
	}
	if got := Second.Seconds(); got != 1 {
		t.Fatalf("Second.Seconds = %v, want 1", got)
	}
}

func TestMicrosRoundsHalfAwayFromZero(t *testing.T) {
	cases := []struct {
		us   float64
		want Time
	}{
		{0, 0},
		{0.0005, 1},   // exact half rounds up
		{0.0004, 0},   // below half truncates
		{1.2, 1200},   // plain positive
		{-1.2, -1200}, // plain negative: must not truncate toward zero
		{-0.0005, -1}, // exact negative half rounds away from zero
		{-0.0004, 0},  // below half rounds to zero
		{-2.5, -2500}, // negative with exact ns value
		{-0.0012, -1}, // -1.2ns rounds to -1, not 0 (truncation bug)
		{-0.0018, -2}, // -1.8ns rounds to -2
	}
	for _, c := range cases {
		if got := Micros(c.us); got != c.want {
			t.Errorf("Micros(%v) = %d, want %d", c.us, got, c.want)
		}
	}
	// Symmetry: negating the input negates the output.
	for _, us := range []float64{0.0005, 0.3, 1.7, 2.5, 99.9999} {
		if Micros(-us) != -Micros(us) {
			t.Errorf("Micros(%v)=%d but Micros(%v)=%d: not symmetric",
				us, Micros(us), -us, Micros(-us))
		}
	}
}

func TestEngineExecutedCountsEvents(t *testing.T) {
	e := New()
	if e.Executed() != 0 {
		t.Fatalf("fresh engine Executed() = %d", e.Executed())
	}
	for i := 1; i <= 5; i++ {
		e.After(Time(i), call(func() {}))
	}
	e.Run()
	if e.Executed() != 5 {
		t.Fatalf("Executed() = %d after 5 events, want 5", e.Executed())
	}
	// RunUntil counts, too, and the counter accumulates across calls.
	e.After(1, call(func() { e.After(1, call(func() {})) }))
	e.RunUntil(e.Now() + 10)
	if e.Executed() != 7 {
		t.Fatalf("Executed() = %d after 7 events, want 7", e.Executed())
	}
}

// benchChurner is the churn benchmarks' self-renewing resource: each
// firing reschedules it at a uniform 1..1000ns delay.
type benchChurner struct {
	e *Engine
	r *rng.Rand
}

func (c *benchChurner) Fire(EventID) { c.e.After(Time(c.r.Uint64n(1000)+1), c) }

func BenchmarkEngineChurn(b *testing.B) {
	// Measures push/pop throughput with a live queue of 1024 events,
	// the regime the scheduling simulations operate in.
	e := New()
	c := &benchChurner{e: e, r: rng.New(1)}
	for i := 0; i < 1024; i++ {
		c.Fire(0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.wheel.pop()
		e.now = ev.at
		ev.h.Fire(EventID(ev.seq))
	}
}

// BenchmarkEngineChurnHeap is the same workload on the retired 4-ary
// heap, the before-number every BENCH_*.json compares the wheel to.
func BenchmarkEngineChurnHeap(b *testing.B) {
	c := &heapChurner{state: 1}
	for i := 0; i < 1024; i++ {
		c.push()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := c.h.pop()
		c.now = ev.at
		ev.h.Fire(EventID(ev.seq))
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0ns"},
		{740, "740ns"},
		{-30, "-30ns"},
		{Microsecond, "1µs"},
		{2070, "2.07µs"},
		{1500 * Microsecond, "1.5ms"},
		{Second, "1s"},
		{2*Second + 500*Millisecond, "2.5s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

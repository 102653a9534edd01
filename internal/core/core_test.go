package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestFIFOOrder(t *testing.T) {
	var q FIFO[int]
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d, want 100", q.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop %d = (%d, %v), want (%d, true)", i, v, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue returned ok")
	}
}

func TestFIFOInterleaved(t *testing.T) {
	var q FIFO[int]
	next := 0
	expect := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < round%7+1; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < round%5 && q.Len() > 0; i++ {
			v, _ := q.Pop()
			if v != expect {
				t.Fatalf("got %d, want %d", v, expect)
			}
			expect++
		}
	}
	for q.Len() > 0 {
		v, _ := q.Pop()
		if v != expect {
			t.Fatalf("drain got %d, want %d", v, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d items, pushed %d", expect, next)
	}
}

func TestFIFOWraparoundGrowth(t *testing.T) {
	// Force growth while head is in the middle of the ring.
	var q FIFO[int]
	for i := 0; i < 6; i++ {
		q.Push(i)
	}
	for i := 0; i < 4; i++ {
		q.Pop()
	}
	for i := 6; i < 30; i++ {
		q.Push(i)
	}
	for want := 4; want < 30; want++ {
		v, ok := q.Pop()
		if !ok || v != want {
			t.Fatalf("got (%d,%v), want (%d,true)", v, ok, want)
		}
	}
}

// fakeView is a fixed-load View for balancer tests.
type fakeView struct {
	lens   []int
	quanta []int64
}

func (v fakeView) Workers() int       { return len(v.lens) }
func (v fakeView) QueueLen(w int) int { return v.lens[w] }
func (v fakeView) ServicedQuanta(w int) int64 {
	if v.quanta == nil {
		return 0
	}
	return v.quanta[w]
}

func TestJSQPicksShortest(t *testing.T) {
	b := NewJSQ(MSQ{})
	v := fakeView{lens: []int{3, 1, 2, 5}}
	if got := b.Pick(v); got != 1 {
		t.Fatalf("JSQ picked %d, want 1", got)
	}
}

func TestJSQMSQTieBreak(t *testing.T) {
	b := NewJSQ(MSQ{})
	// Workers 0, 2, 3 tie at queue length 1; worker 2 has the most
	// serviced quanta for its current jobs.
	v := fakeView{
		lens:   []int{1, 4, 1, 1},
		quanta: []int64{10, 99, 70, 30},
	}
	if got := b.Pick(v); got != 2 {
		t.Fatalf("JSQ+MSQ picked %d, want 2", got)
	}
}

func TestMSQDeterministicOnFullTie(t *testing.T) {
	v := fakeView{lens: []int{1, 1}, quanta: []int64{5, 5}}
	if got := (MSQ{}).Break(v, []int{0, 1}); got != 0 {
		t.Fatalf("MSQ full tie picked %d, want 0 (lowest index)", got)
	}
}

func TestRandomTieUniform(t *testing.T) {
	tie := RandomTie{R: rng.New(1)}
	v := fakeView{lens: []int{0, 0, 0}}
	counts := make([]int, 3)
	cands := []int{0, 1, 2}
	for i := 0; i < 30000; i++ {
		counts[tie.Break(v, cands)]++
	}
	for w, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("worker %d picked %d/30000 times, want ~10000", w, c)
		}
	}
}

func TestPowerOfTwoPrefersShorter(t *testing.T) {
	b := PowerOfTwo{R: rng.New(2)}
	v := fakeView{lens: []int{0, 10}}
	// With 2 workers, both are always sampled; must always pick 0.
	for i := 0; i < 100; i++ {
		if got := b.Pick(v); got != 0 {
			t.Fatalf("PowerOfTwo picked %d, want 0", got)
		}
	}
}

func TestPowerOfTwoSamplesDistinct(t *testing.T) {
	b := PowerOfTwo{R: rng.New(3)}
	// All equal loads: every worker should be reachable.
	v := fakeView{lens: make([]int, 8)}
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		seen[b.Pick(v)] = true
	}
	if len(seen) != 8 {
		t.Fatalf("PowerOfTwo reached %d/8 workers", len(seen))
	}
}

func TestRandomBalancerRange(t *testing.T) {
	b := Random{R: rng.New(4)}
	v := fakeView{lens: make([]int, 5)}
	for i := 0; i < 1000; i++ {
		w := b.Pick(v)
		if w < 0 || w >= 5 {
			t.Fatalf("Random picked out-of-range worker %d", w)
		}
	}
}

func TestRSSSteerStableAndBounded(t *testing.T) {
	var rss RSS
	for key := uint64(0); key < 1000; key++ {
		w := rss.Steer(key, 16)
		if w < 0 || w >= 16 {
			t.Fatalf("RSS steered key %d to %d", key, w)
		}
		if w2 := rss.Steer(key, 16); w2 != w {
			t.Fatalf("RSS not deterministic for key %d", key)
		}
	}
}

func TestRSSBalancesRoughly(t *testing.T) {
	var rss RSS
	const n = 160000
	counts := make([]int, 16)
	for key := uint64(0); key < n; key++ {
		counts[rss.Steer(key, 16)]++
	}
	want := n / 16
	for w, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Fatalf("RSS worker %d got %d keys, want about %d", w, c, want)
		}
	}
}

func TestLoadTrackerQueueLen(t *testing.T) {
	lt := NewLoadTracker(2, 8)
	lt.Assign(0)
	lt.Assign(0)
	lt.Assign(1)
	if got := lt.QueueLen(0); got != 2 {
		t.Fatalf("QueueLen(0) = %d, want 2", got)
	}
	lt.ObserveFinished(0, 1) // worker 0 finished one job
	if got := lt.QueueLen(0); got != 1 {
		t.Fatalf("QueueLen(0) after finish = %d, want 1", got)
	}
	if got := lt.QueueLen(1); got != 1 {
		t.Fatalf("QueueLen(1) = %d, want 1", got)
	}
}

func TestLoadTrackerCounterWrap(t *testing.T) {
	// 4-bit worker counter wraps at 16; the tracker must still recover
	// totals as long as it reads often enough.
	lt := NewLoadTracker(1, 4)
	var raw uint64
	for i := 0; i < 100; i++ {
		lt.Assign(0)
		raw = (raw + 1) & 0xf
		lt.ObserveFinished(0, raw)
		if got := lt.QueueLen(0); got != 0 {
			t.Fatalf("step %d: QueueLen = %d, want 0", i, got)
		}
	}
}

func TestLoadTrackerWraparoundProperty(t *testing.T) {
	// Property: for any sequence of worker-side increments each smaller
	// than the counter modulus, delta reads recover the exact finished
	// total.
	f := func(seed uint64, width8 uint8) bool {
		width := uint(width8%12) + 4 // widths 4..15
		r := rng.New(seed)
		lt := NewLoadTracker(1, width)
		mask := uint64(1)<<width - 1
		var raw, total uint64
		for i := 0; i < 200; i++ {
			inc := r.Uint64n(mask)
			raw = (raw + inc) & mask
			total += inc
			lt.ObserveFinished(0, raw)
			if lt.finished[0] != total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadTracker64BitWidth(t *testing.T) {
	// A full-width counter has no mask: the delta must still be taken
	// modulo 2^64 when the raw value wraps past zero.
	lt := NewLoadTracker(1, 64)
	lt.ObserveFinished(0, math.MaxUint64-5)
	before := lt.finished[0]
	lt.ObserveFinished(0, 4) // advanced by 10, wrapping the 64-bit space
	if got := lt.finished[0] - before; got != 10 {
		t.Fatalf("64-bit wraparound delta = %d, want 10", got)
	}
}

func TestLoadTrackerQuanta(t *testing.T) {
	lt := NewLoadTracker(3, 32)
	lt.ObserveQuanta(1, 42)
	if got := lt.ServicedQuanta(1); got != 42 {
		t.Fatalf("ServicedQuanta = %d, want 42", got)
	}
}

func TestJSQUsesLoadTrackerEndToEnd(t *testing.T) {
	lt := NewLoadTracker(3, 16)
	b := NewJSQ(MSQ{})
	// Assign round-robin-ish and verify JSQ follows the shortest queue.
	lt.Assign(0)
	lt.Assign(0)
	lt.Assign(1)
	if got := b.Pick(lt); got != 2 {
		t.Fatalf("pick = %d, want 2 (empty)", got)
	}
	lt.Assign(2)
	lt.Assign(2)
	// Queues now 2,1,2 -> worker 1.
	if got := b.Pick(lt); got != 1 {
		t.Fatalf("pick = %d, want 1", got)
	}
}

func BenchmarkJSQPick16(b *testing.B) {
	lt := NewLoadTracker(16, 32)
	r := rng.New(1)
	for w := 0; w < 16; w++ {
		for i := 0; i < r.Intn(8); i++ {
			lt.Assign(w)
		}
	}
	bal := NewJSQ(MSQ{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bal.Pick(lt)
	}
}

func BenchmarkFIFOPushPop(b *testing.B) {
	var q FIFO[uint64]
	for i := 0; i < 64; i++ {
		q.Push(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := q.Pop()
		q.Push(v)
	}
}

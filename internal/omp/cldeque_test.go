package omp

import (
	"testing"

	"github.com/interweaving/komp/internal/exec"
)

func TestCLDequeLIFOOwnerFIFOThief(t *testing.T) {
	layer := exec.NewRealLayer(1)
	if _, err := layer.Run(func(tc exec.TC) {
		d := newCLDeque()
		a, b, c := &task{}, &task{}, &task{}
		d.push(tc, a)
		d.push(tc, b)
		d.push(tc, c)
		if d.size() != 3 {
			t.Errorf("size = %d, want 3", d.size())
		}
		if got := d.steal(tc); got != a {
			t.Errorf("thief must take the oldest task")
		}
		if got := d.pop(tc); got != c {
			t.Errorf("owner must take the newest task")
		}
		if got := d.pop(tc); got != b {
			t.Errorf("pop #2 = %p, want %p", got, b)
		}
		if d.pop(tc) != nil || d.steal(tc) != nil || d.size() != 0 {
			t.Error("drained deque must be empty for owner and thief alike")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCLDequeGrowsPastInitialCapacity(t *testing.T) {
	layer := exec.NewRealLayer(1)
	if _, err := layer.Run(func(tc exec.TC) {
		d := newCLDeque()
		n := clInitialCap*2 + 3
		tasks := make([]*task, n)
		for i := range tasks {
			tasks[i] = &task{}
			d.push(tc, tasks[i])
		}
		if d.size() != n {
			t.Fatalf("size = %d, want %d", d.size(), n)
		}
		for i := n - 1; i >= 0; i-- {
			if got := d.pop(tc); got != tasks[i] {
				t.Fatalf("pop %d returned the wrong task", i)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCLDequePushPopZeroAlloc(t *testing.T) {
	// The owner's steady-state push/pop must not allocate: past the
	// initial ring, the hot path is two index updates and a slot store.
	layer := exec.NewRealLayer(1)
	if _, err := layer.Run(func(tc exec.TC) {
		d := newCLDeque()
		tk := &task{}
		// Warm up the ring and the contention bookkeeping once.
		d.push(tc, tk)
		d.pop(tc)
		allocs := testing.AllocsPerRun(200, func() {
			d.push(tc, tk)
			d.push(tc, tk)
			if d.pop(tc) == nil || d.pop(tc) == nil {
				t.Fatal("pop lost a task")
			}
		})
		if allocs != 0 {
			t.Errorf("push/pop allocated %.1f times per run, want 0", allocs)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// requireNoStaleSlots fails if any slot of the deque's current ring
// still holds a task pointer.
func requireNoStaleSlots(t *testing.T, d *clDeque, when string) {
	t.Helper()
	r := d.ring.Load()
	for i := range r.slot {
		if r.slot[i].Load() != nil {
			t.Fatalf("%s: slot %d of %d still holds a task after reset", when, i, r.capacity())
		}
	}
}

func TestCLDequeResetClearsPushedSlots(t *testing.T) {
	// reset clears only the slots pushed since the previous reset; the
	// high-water mark must cover slots whose task already left through
	// pop or steal (bottom is back below it), across ring wrap-around
	// and after a grown ring was replaced.
	layer := exec.NewRealLayer(1)
	if _, err := layer.Run(func(tc exec.TC) {
		d := newCLDeque()
		d.push(tc, &task{})
		d.push(tc, &task{})
		d.pop(tc)
		d.pop(tc)
		d.reset()
		requireNoStaleSlots(t, d, "push, push, pop, pop")

		// Wrap the ring: indices run past clInitialCap.
		for i := 0; i < clInitialCap-3; i++ {
			d.push(tc, &task{})
			d.pop(tc)
		}
		for i := 0; i < 9; i++ {
			d.push(tc, &task{})
		}
		d.steal(tc)
		for d.pop(tc) != nil {
		}
		d.reset()
		requireNoStaleSlots(t, d, "wrapped ring")

		// Grow, drain and reset (the ring is replaced), then reuse.
		for i := 0; i < clInitialCap*2+3; i++ {
			d.push(tc, &task{})
		}
		for d.pop(tc) != nil {
		}
		d.reset()
		if d.ring.Load().capacity() != clInitialCap {
			t.Fatalf("reset left capacity %d, want %d", d.ring.Load().capacity(), clInitialCap)
		}
		requireNoStaleSlots(t, d, "after growth")
		d.push(tc, &task{})
		d.push(tc, &task{})
		d.pop(tc)
		d.pop(tc)
		d.reset()
		requireNoStaleSlots(t, d, "push, push, pop, pop after growth")

		// A region that pushed nothing has nothing to clear.
		d.reset()
		if d.clean != d.high || d.clean != d.bottom.Load() {
			t.Fatalf("empty region: clean=%d high=%d bottom=%d", d.clean, d.high, d.bottom.Load())
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCLDequePushPop(b *testing.B) {
	layer := exec.NewRealLayer(1)
	if _, err := layer.Run(func(tc exec.TC) {
		d := newCLDeque()
		tk := &task{}
		d.push(tc, tk)
		d.pop(tc)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.push(tc, tk)
			d.pop(tc)
		}
	}); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkMutexDequePushPop(b *testing.B) {
	layer := exec.NewRealLayer(1)
	if _, err := layer.Run(func(tc exec.TC) {
		d := &mutexDeque{}
		tk := &task{}
		d.push(tc, tk)
		d.pop(tc)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.push(tc, tk)
			d.pop(tc)
		}
	}); err != nil {
		b.Fatal(err)
	}
}

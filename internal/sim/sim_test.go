package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestSingleProcAdvancesTime(t *testing.T) {
	s := New(1, 1)
	var end Time
	s.Go("p", 0, 0, func(p *Proc) {
		p.Compute(100)
		p.Compute(50)
		end = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 150 {
		t.Fatalf("proc time = %d, want 150", end)
	}
	if s.Now() != 150 {
		t.Fatalf("sim time = %d, want 150", s.Now())
	}
}

func TestParallelProcsOverlap(t *testing.T) {
	s := New(4, 1)
	ends := make([]Time, 4)
	for i := 0; i < 4; i++ {
		i := i
		s.Go("p", i, 0, func(p *Proc) {
			p.Compute(1000)
			ends[i] = p.Now()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, e := range ends {
		if e != 1000 {
			t.Fatalf("proc %d end = %d, want 1000 (parallel execution)", i, e)
		}
	}
	if s.Now() != 1000 {
		t.Fatalf("sim end = %d, want 1000", s.Now())
	}
}

func TestSameCPUContends(t *testing.T) {
	s := New(1, 1)
	ends := make([]Time, 2)
	for i := 0; i < 2; i++ {
		i := i
		s.Go("p", 0, 0, func(p *Proc) {
			p.Compute(1000)
			ends[i] = p.Now()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	got := []Time{ends[0], ends[1]}
	if got[0] > got[1] {
		got[0], got[1] = got[1], got[0]
	}
	if got[0] != 1000 || got[1] != 2000 {
		t.Fatalf("contended ends = %v, want [1000 2000]", got)
	}
}

func TestSleepDoesNotOccupyCPU(t *testing.T) {
	s := New(1, 1)
	var computeEnd Time
	s.Go("sleeper", 0, 0, func(p *Proc) { p.Sleep(1000) })
	s.Go("worker", 0, 0, func(p *Proc) {
		p.Compute(500)
		computeEnd = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if computeEnd != 500 {
		t.Fatalf("worker end = %d, want 500 (sleeper must not hold the CPU)", computeEnd)
	}
}

func TestParkUnpark(t *testing.T) {
	s := New(2, 1)
	var consumer *Proc
	var got Time
	consumer = s.Go("consumer", 0, 0, func(p *Proc) {
		p.Park()
		got = p.Now()
	})
	s.Go("producer", 1, 0, func(p *Proc) {
		p.Compute(700)
		s.Unpark(consumer, p.Now()+42)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 742 {
		t.Fatalf("consumer woke at %d, want 742", got)
	}
}

func TestDeadlockDetected(t *testing.T) {
	s := New(1, 1)
	s.Go("stuck", 0, 0, func(p *Proc) { p.Park() })
	if err := s.Run(); err == nil {
		t.Fatal("expected deadlock error, got nil")
	}
}

func TestWaitQueueFIFO(t *testing.T) {
	s := New(4, 1)
	q := NewWaitQueue(s)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		s.Go("waiter", i, Time(i), func(p *Proc) {
			q.Wait(p)
			order = append(order, i)
		})
	}
	s.Go("waker", 3, 100, func(p *Proc) {
		for q.Len() > 0 {
			q.WakeOne(p.Now(), 10)
			p.Compute(5)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("wake order = %v, want [0 1 2]", order)
	}
}

func TestWakeAllStagger(t *testing.T) {
	s := New(8, 1)
	q := NewWaitQueue(s)
	ends := make([]Time, 4)
	for i := 0; i < 4; i++ {
		i := i
		s.Go("waiter", i, 0, func(p *Proc) {
			q.Wait(p)
			ends[i] = p.Now()
		})
	}
	s.Go("waker", 7, 100, func(p *Proc) {
		if n := q.WakeAll(p.Now(), 10, 3); n != 4 {
			t.Errorf("WakeAll woke %d, want 4", n)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, e := range ends {
		want := Time(110 + 3*i)
		if e != want {
			t.Fatalf("waiter %d woke at %d, want %d", i, e, want)
		}
	}
}

func TestFutexValueCheck(t *testing.T) {
	s := New(2, 1)
	ft := NewFutexTable(s)
	word := uint32(1)
	var blocked bool
	s.Go("w", 0, 0, func(p *Proc) {
		blocked = ft.Wait(p, &word, 7, 25) // value mismatch: no block
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if blocked {
		t.Fatal("futex Wait blocked despite value mismatch")
	}
	if s.Now() != 25 {
		t.Fatalf("entry cost not charged: now=%d want 25", s.Now())
	}
}

func TestFutexWaitWake(t *testing.T) {
	s := New(2, 1)
	ft := NewFutexTable(s)
	word := uint32(0)
	var wakeTime Time
	s.Go("waiter", 0, 0, func(p *Proc) {
		if !ft.Wait(p, &word, 0, 100) {
			t.Error("expected to block")
		}
		wakeTime = p.Now()
	})
	s.Go("waker", 1, 500, func(p *Proc) {
		word = 1
		if n := ft.Wake(p, &word, 1, 100, 50, 0); n != 1 {
			t.Errorf("woke %d, want 1", n)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// waker: starts at 500, entry cost 100 -> wake issued at 600, +50 latency.
	if wakeTime != 650 {
		t.Fatalf("waiter woke at %d, want 650", wakeTime)
	}
	if ft.Waiters(&word) != 0 {
		t.Fatal("queue not cleaned up")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Time {
		s := New(8, 42)
		s.SetNoise(jitterNoise{})
		done := NewWaitQueue(s)
		for i := 0; i < 8; i++ {
			s.Go("p", i, 0, func(p *Proc) {
				for k := 0; k < 50; k++ {
					p.Compute(100)
					p.Yield()
				}
			})
		}
		_ = done
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Now()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic: %d vs %d", a, b)
	}
}

// jitterNoise adds a pseudo-random stretch to every segment.
type jitterNoise struct{}

func (jitterNoise) Extend(rng *rand.Rand, _ int, start, d Time) Time {
	return start + d + Time(rng.Intn(20))
}

func TestNoiseExtends(t *testing.T) {
	s := New(1, 7)
	s.SetNoise(jitterNoise{})
	var end Time
	s.Go("p", 0, 0, func(p *Proc) {
		p.Compute(1000)
		end = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if end < 1000 || end >= 1020 {
		t.Fatalf("noisy end = %d, want [1000,1020)", end)
	}
}

func TestAtCallback(t *testing.T) {
	s := New(1, 1)
	var fired Time = -1
	s.At(333, func() { fired = s.Now() })
	s.Go("p", 0, 0, func(p *Proc) { p.Compute(1000) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 333 {
		t.Fatalf("callback fired at %d, want 333", fired)
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1, 1)
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		s.After(100, tick)
	}
	s.After(100, tick)
	s.RunUntil(1000)
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
	if s.Now() != 1000 {
		t.Fatalf("now = %d, want 1000", s.Now())
	}
}

func TestCPUAccounting(t *testing.T) {
	s := New(2, 1)
	s.Go("a", 0, 0, func(p *Proc) { p.Compute(300) })
	s.Go("b", 0, 0, func(p *Proc) { p.Compute(200) })
	s.Go("c", 1, 0, func(p *Proc) { p.Compute(50) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.CPU(0).BusyNS != 500 || s.CPU(0).Segments != 2 {
		t.Fatalf("cpu0 busy=%d segs=%d, want 500/2", s.CPU(0).BusyNS, s.CPU(0).Segments)
	}
	if s.CPU(1).BusyNS != 50 {
		t.Fatalf("cpu1 busy=%d, want 50", s.CPU(1).BusyNS)
	}
}

func TestWaitQueueRemove(t *testing.T) {
	s := New(2, 1)
	q := NewWaitQueue(s)
	var victim *Proc
	woke := false
	victim = s.Go("victim", 0, 0, func(p *Proc) {
		q.Wait(p)
		woke = true
	})
	s.Go("killer", 1, 10, func(p *Proc) {
		if !q.Remove(victim) {
			t.Error("Remove failed")
		}
		s.Unpark(victim, p.Now())
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !woke {
		t.Fatal("victim never resumed")
	}
	if q.Len() != 0 {
		t.Fatal("queue should be empty")
	}
}

func TestUtilizationReport(t *testing.T) {
	s := New(4, 1)
	s.Go("busy", 0, 0, func(p *Proc) { p.Compute(1000) })
	s.Go("half", 1, 0, func(p *Proc) { p.Compute(500) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	u := s.Utilization()
	if u.ElapsedNS != 1000 {
		t.Fatalf("elapsed = %d", u.ElapsedNS)
	}
	if u.BusyFrac[0] != 1.0 || u.BusyFrac[1] != 0.5 || u.BusyFrac[2] != 0 {
		t.Fatalf("busy = %v", u.BusyFrac)
	}
	if u.Mean != (1.0+0.5)/4 {
		t.Fatalf("mean = %v", u.Mean)
	}
}

// resumeTraceHash runs a seeded mix of every blocking primitive —
// Compute, Sleep, Yield, Park/Unpark, wait queues, futexes, timer
// callbacks and cancelled timers — and hashes the (now, proc ID) order
// in which procs resume. Any change to who runs when changes the hash.
func resumeTraceHash(t *testing.T, algo EQAlgo, seed int64) uint64 {
	t.Helper()
	const workers, iters = 12, 150
	s := NewEQ(4, seed, algo)
	s.SetNoise(jitterNoise{})
	q := NewWaitQueue(s).SetLabel("mix")
	ft := NewFutexTable(s)
	var word uint32
	h := fnv.New64a()
	var buf [16]byte
	mark := func(p *Proc) {
		binary.LittleEndian.PutUint64(buf[:8], uint64(p.Now()))
		binary.LittleEndian.PutUint64(buf[8:], uint64(p.ID))
		h.Write(buf[:])
	}
	var parked []*Proc
	done := 0
	rng := s.RNG()
	for i := 0; i < workers; i++ {
		s.Go("w", i%5-1, Time(i*7), func(p *Proc) {
			defer func() { done++ }()
			for k := 0; k < iters; k++ {
				switch rng.Intn(7) {
				case 0:
					p.Compute(Time(1 + rng.Intn(300)))
				case 1:
					p.Sleep(Time(rng.Intn(200)))
				case 2:
					p.Yield()
				case 3:
					parked = append(parked, p)
					p.Park()
				case 4:
					q.Wait(p)
				case 5:
					ft.Wait(p, &word, word, Time(rng.Intn(40)))
				case 6:
					if n := len(parked); n > 0 {
						j := rng.Intn(n)
						v := parked[j]
						parked = append(parked[:j], parked[j+1:]...)
						s.Unpark(v, p.Now()+Time(rng.Intn(50)))
					}
				}
				mark(p)
			}
		})
	}
	s.Go("waker", 4-1, 0, func(p *Proc) {
		for done < workers {
			p.Compute(Time(20 + rng.Intn(200)))
			for _, v := range parked {
				s.Unpark(v, p.Now()+Time(rng.Intn(30)))
			}
			parked = parked[:0]
			if rng.Intn(2) == 0 {
				q.WakeOne(p.Now(), 5)
			} else {
				q.WakeAll(p.Now(), 5, 3)
			}
			word++
			ft.Wake(p, &word, -1, 10, 15, 2)
			mark(p)
		}
	})
	var tick func()
	tick = func() {
		q.WakeOne(s.Now(), 1)
		cancel := s.AfterCancel(77, func() { t.Error("cancelled timer fired") })
		cancel()
		if done < workers {
			s.After(Time(150+rng.Intn(100)), tick)
		}
	}
	s.After(100, tick)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(buf[:8], uint64(s.Now()))
	binary.LittleEndian.PutUint64(buf[8:], uint64(s.EventsFired()))
	h.Write(buf[:])
	return h.Sum64()
}

// The resume order of the mix is pinned: the scheduler decides which
// goroutine runs the event loop, never the order events fire in.
func TestResumeTraceGolden(t *testing.T) {
	for _, c := range []struct {
		seed int64
		want uint64
	}{{1, 0xcb2c559171e4efad}, {104729, 0xd33099a6cdc3c35}} {
		for _, algo := range []EQAlgo{EQWheel, EQHeap} {
			if got := resumeTraceHash(t, algo, c.seed); got != c.want {
				t.Errorf("seed %d %s: resume trace hash %#x, want %#x", c.seed, algo, got, c.want)
			}
		}
	}
}

// A watchdog stall raised inside the event loop while a proc goroutine
// holds control (every event here belongs to a proc) reaches Run's
// caller unchanged, and the simulation stops where the check fired.
func TestHandoffWatchdogFromProc(t *testing.T) {
	s := New(2, 1)
	s.SetWatchdog(1000)
	s.Go("stuck", 0, 0, func(p *Proc) {
		p.Compute(10)
		p.ParkReason("lost wake")
	})
	s.Go("spinner", 1, 0, func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Compute(100)
		}
	})
	var se *StallError
	if err := s.Run(); !errors.As(err, &se) {
		t.Fatalf("Run = %v, want a *StallError", err)
	}
	// Checks at 1000 (990ns blocked: fine) and 1300 (1290ns: stalled).
	if se.Kind != "watchdog" || se.Now != 1300 || se.Limit != 1000 || s.Now() != 1300 {
		t.Fatalf("stall kind=%s now=%d limit=%d sim now=%d, want watchdog at 1300/1000",
			se.Kind, se.Now, se.Limit, s.Now())
	}
	if len(se.Stalled) != 1 || se.Stalled[0].Name != "stuck" || se.Stalled[0].Waited != 1290 {
		t.Fatalf("stalled = %+v, want just 'stuck' after 1290ns", se.Stalled)
	}
}

// RunUntil stops at its horizon even when the blocking proc's own next
// event (the no-switch path) lies beyond it, and a later RunUntil
// resumes the proc at exactly that event's time.
func TestHandoffRunUntilOwnEventPastHorizon(t *testing.T) {
	s := New(1, 1)
	var woke []Time
	s.Go("sleeper", 0, 0, func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(300)
			woke = append(woke, p.Now())
		}
	})
	late := false
	s.At(550, func() { late = true })
	s.RunUntil(500)
	if len(woke) != 1 || woke[0] != 300 || late || s.Now() != 500 {
		t.Fatalf("after RunUntil(500): woke=%v callback=%v now=%d, want [300] false 500", woke, late, s.Now())
	}
	s.RunUntil(1000)
	if len(woke) != 3 || woke[1] != 600 || woke[2] != 900 || !late || s.Now() != 1000 {
		t.Fatalf("after RunUntil(1000): woke=%v callback=%v now=%d, want [300 600 900] true 1000", woke, late, s.Now())
	}
	if err := s.Run(); err != nil || len(s.Procs()) != 0 {
		t.Fatalf("Run = %v with %d procs left", err, len(s.Procs()))
	}
}

// Kill of a proc whose next event is always its own — it resumes with
// no goroutine switch — still makes it exit, retires it from the live
// set, and hands control on to the rest of the simulation.
func TestHandoffKillOwnEventPath(t *testing.T) {
	s := New(2, 1)
	steps := 0
	victim := s.Go("victim", 0, 0, func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Compute(100)
			steps++
		}
	})
	self := s.Go("self", 1, 0, func(p *Proc) {
		p.Compute(50)
		s.Kill(p)
		p.Compute(50)
		t.Error("self-killed proc resumed")
	})
	var bystander Time
	s.Go("bystander", -1, 0, func(p *Proc) {
		p.Sleep(1000)
		bystander = p.Now()
	})
	s.At(450, func() {
		s.Kill(victim)
		if n := len(s.Procs()); n != 2 {
			t.Errorf("%d procs live at the kill, want 2", n)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != 4 || victim.State() != StateDone || self.State() != StateDone {
		t.Fatalf("victim ran %d steps (want 4), states %v/%v, want done", steps, victim.State(), self.State())
	}
	if bystander != 1000 || s.live != 0 || len(s.Procs()) != 0 {
		t.Fatalf("bystander woke at %d, live=%d procs=%d; want 1000, 0, 0", bystander, s.live, len(s.Procs()))
	}
}

// A proc that exits while others remain queued hands control straight
// to the next event: the callback after the exit runs on the exiting
// proc's goroutine, not on the goroutine that called Run.
func TestHandoffExitSkipsRunCaller(t *testing.T) {
	s := New(2, 1)
	s.Go("short", 0, 0, func(p *Proc) { p.Compute(100) })
	var woke Time
	s.Go("long", 1, 0, func(p *Proc) {
		p.Compute(500)
		woke = p.Now()
	})
	var stack string
	s.At(200, func() {
		buf := make([]byte, 8<<10)
		stack = string(buf[:runtime.Stack(buf, false)])
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 500 {
		t.Fatalf("long proc woke at %d, want 500", woke)
	}
	if strings.Contains(stack, "(*Sim).Run(") || !strings.Contains(stack, "(*Sim).Go.func") {
		t.Fatalf("callback after the exit ran on Run's caller, not the exiting proc:\n%s", stack)
	}
}

// The deadlock report names exactly the procs blocked with no way
// forward — never one that finished, was killed, or was woken and ran
// to completion — with their wait reasons, in ID order.
func TestHandoffDeadlockNamesBlockedProcs(t *testing.T) {
	s := New(2, 1)
	q := NewWaitQueue(s).SetLabel("q")
	ft := NewFutexTable(s)
	var word uint32
	s.Go("finished", 0, 0, func(p *Proc) { p.Compute(10) })
	woken := s.Go("woken", 0, 0, func(p *Proc) {
		p.Park()
		p.Compute(10)
	})
	killed := s.Go("killed", 1, 0, func(p *Proc) { q.Wait(p) })
	s.Go("parked", 1, 0, func(p *Proc) {
		p.Compute(20)
		p.ParkReason("parked forever")
	})
	s.Go("queued", 0, 0, func(p *Proc) {
		p.Compute(30)
		q.Wait(p)
	})
	s.Go("futex", -1, 0, func(p *Proc) { ft.Wait(p, &word, 0, 40) })
	s.Go("waker", -1, 0, func(p *Proc) {
		p.Sleep(100)
		s.Kill(killed)
		s.Unpark(woken, p.Now())
	})
	err := s.Run()
	var se *StallError
	if !errors.As(err, &se) || se.Kind != "deadlock" {
		t.Fatalf("Run = %v, want a deadlock", err)
	}
	var got []string
	for _, st := range se.Stalled {
		got = append(got, fmt.Sprintf("%s#%d:%s@%d", st.Name, st.ID, st.Reason, st.Since))
	}
	want := []string{"parked#4:parked forever@20", "queued#5:waitqueue q@40", "futex#6:waitqueue futex@40"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("deadlock names %v, want %v", got, want)
	}
	if n := len(s.Procs()); n != 3 {
		t.Fatalf("%d live procs, want the 3 deadlocked", n)
	}
}

// A panic in a proc is re-raised by Run at its caller, with the value the
// proc panicked with, and the caller can recover it.
func TestProcPanicReraisedAtRun(t *testing.T) {
	type boom struct{ at Time }
	s := New(2, 1)
	s.Go("bystander", 1, 0, func(p *Proc) { p.Compute(1000) })
	s.Go("panicker", 0, 0, func(p *Proc) {
		p.Compute(100)
		panic(boom{p.Now()})
	})
	var got any
	func() {
		defer func() { got = recover() }()
		_ = s.Run()
		t.Error("Run returned normally after a proc panic")
	}()
	if got != (boom{100}) {
		t.Fatalf("recovered %#v, want boom{at:100}", got)
	}
}

// runCaught calls Run on a fresh goroutine and reports whether Run
// returned to it: a Goexit that escaped a proc would unwind that
// goroutine before the flag is set.
func runCaught(s *Sim) (err error, returned bool) {
	done := make(chan bool)
	go func() {
		ok := false
		defer func() { done <- ok }()
		err = s.Run()
		ok = true
	}()
	returned = <-done
	return err, returned
}

// A proc that calls runtime.Goexit in its body and a proc killed by Kill
// both retire, and Run returns normally to a caller that survives them.
func TestGoexitAndKillLeaveRunCallerRunning(t *testing.T) {
	s := New(2, 1)
	after := false
	exiter := s.Go("goexit", 0, 0, func(p *Proc) {
		p.Compute(100)
		runtime.Goexit()
	})
	victim := s.Go("victim", 1, 0, func(p *Proc) {
		p.Park()
		after = true
	})
	var woke Time
	s.Go("killer", -1, 0, func(p *Proc) {
		p.Sleep(200)
		s.Kill(victim)
		p.Sleep(300)
		woke = p.Now()
	})
	err, returned := runCaught(s)
	if !returned {
		t.Fatal("a proc's Goexit unwound Run's caller")
	}
	if err != nil {
		t.Fatal(err)
	}
	if exiter.State() != StateDone || victim.State() != StateDone || after || woke != 500 {
		t.Fatalf("states %v/%v, victim resumed=%v, killer woke at %d; want done/done, false, 500",
			exiter.State(), victim.State(), after, woke)
	}
	if s.live != 0 || len(s.Procs()) != 0 {
		t.Fatalf("live=%d procs=%d after Run, want 0 0", s.live, len(s.Procs()))
	}
}

// Once every proc of a sim finished, exited by Goexit or was killed, no
// goroutine of the sim outlives it.
func TestFinishedSimLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(2, 1)
	q := NewWaitQueue(s)
	var victims []*Proc
	for i := 0; i < 8; i++ {
		s.Go("done", i%2, 0, func(p *Proc) { p.Compute(Time(10 * (i + 1))) })
		s.Go("goexit", i%2, 0, func(p *Proc) {
			p.Compute(5)
			runtime.Goexit()
		})
		victims = append(victims, s.Go("victim", -1, 0, func(p *Proc) { q.Wait(p) }))
	}
	s.Go("killer", -1, 0, func(p *Proc) {
		p.Sleep(50)
		for _, v := range victims {
			s.Kill(v)
		}
	})
	if err, returned := runCaught(s); err != nil || !returned {
		t.Fatalf("Run = %v, returned=%v", err, returned)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the sim, want the %d before it", n, base)
	}
}

// A proc of one sim can run another sim to completion: the inner sim's
// procs resume from the outer proc's goroutine, in the same order as when
// the inner sim runs on its own, and the outer sim carries on after.
func TestNestedSimRunsFromProc(t *testing.T) {
	want := resumeTraceHash(t, EQWheel, 1)
	outer := New(2, 1)
	var got uint64
	var hostEnd, peerEnd Time
	outer.Go("host", 0, 0, func(p *Proc) {
		p.Compute(100)
		got = resumeTraceHash(t, EQWheel, 1)
		p.Compute(100)
		hostEnd = p.Now()
	})
	outer.Go("peer", 1, 0, func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Compute(60)
		}
		peerEnd = p.Now()
	})
	if err := outer.Run(); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("nested resume trace hash %#x, want %#x as run standalone", got, want)
	}
	if hostEnd != 200 || peerEnd != 300 || outer.Now() != 300 {
		t.Fatalf("outer ends host=%d peer=%d now=%d, want 200 300 300", hostEnd, peerEnd, outer.Now())
	}
}

// Successive RunUntil calls may come from different goroutines: the procs
// resume where they left off, whichever goroutine drives them.
func TestRunUntilFromDifferentGoroutines(t *testing.T) {
	s := New(2, 1)
	var woke []Time
	var ping, pong *Proc
	ping = s.Go("ping", 0, 0, func(p *Proc) {
		for i := 0; i < 6; i++ {
			p.Compute(150)
			woke = append(woke, p.Now())
			if pong.State() == StateBlocked {
				s.Unpark(pong, p.Now())
			}
		}
	})
	pong = s.Go("pong", 1, 0, func(p *Proc) {
		for ping.State() != StateDone {
			p.Park()
		}
	})
	for i := 1; i <= 4; i++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.RunUntil(Time(i) * 250)
		}()
		<-done
		if s.Now() != Time(i)*250 {
			t.Fatalf("after RunUntil(%d) now = %d", i*250, s.Now())
		}
	}
	if fmt.Sprint(woke) != "[150 300 450 600 750 900]" {
		t.Fatalf("ping woke at %v, want every 150ns to 900", woke)
	}
	if err := s.Run(); err != nil || len(s.Procs()) != 0 {
		t.Fatalf("Run = %v with %d procs left", err, len(s.Procs()))
	}
}

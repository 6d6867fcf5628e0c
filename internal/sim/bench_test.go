package sim

import (
	"fmt"
	"math"
	"testing"
)

// The microbenchmark grid: concurrent timer streams standing in for
// machine sizes from a workstation to the 1024-core scale target.
var benchProcs = []int{24, 192, 1024}

func benchAlgos() []EQAlgo { return []EQAlgo{EQWheel, EQHeap} }

// preload fills the queue with n far-future events (one per simulated
// proc) so every benchmarked operation runs against a realistically
// loaded queue — this is where the heap pays its O(log n) sift and the
// wheel does not.
func preload(s *Sim, n int) {
	for i := 0; i < n; i++ {
		s.At(1<<40+Time(i), func() {})
	}
}

// BenchmarkSchedule measures one schedule+fire round trip (push, pop,
// recycle) with n pending events in the queue.
func BenchmarkSchedule(b *testing.B) {
	for _, algo := range benchAlgos() {
		for _, n := range benchProcs {
			b.Run(fmt.Sprintf("%s/procs=%d", algo, n), func(b *testing.B) {
				s := NewEQ(1, 1, algo)
				preload(s, n)
				fn := func() {}
				s.After(1, fn)
				s.RunUntil(s.Now() + 2) // warm the free list
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.After(1, fn)
					s.RunUntil(s.Now() + 2)
				}
			})
		}
	}
}

// BenchmarkRunUntil measures steady-state event throughput: n
// self-rearming timer streams with staggered periods, advanced in
// fixed windows. Events per op scales with n, so compare via the
// events/sec figure (ns/op divided by events per window).
func BenchmarkRunUntil(b *testing.B) {
	for _, algo := range benchAlgos() {
		for _, n := range benchProcs {
			b.Run(fmt.Sprintf("%s/procs=%d", algo, n), func(b *testing.B) {
				s := NewEQ(1, 1, algo)
				ticks := make([]func(), n)
				for i := range ticks {
					period := Time(83 + i%211)
					i := i
					ticks[i] = func() { s.After(period, ticks[i]) }
					s.After(Time(i%977), ticks[i])
				}
				s.RunUntil(100_000) // warm
				base := s.EventsFired()
				next := s.Now()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					next += 10_000
					s.RunUntil(next)
				}
				b.StopTimer()
				if b.N > 0 {
					b.ReportMetric(float64(s.EventsFired()-base)/float64(b.N), "events/op")
				}
			})
		}
	}
}

// BenchmarkAlarmCancel measures the arm+cancel path (the futex-recheck
// pattern: almost every alarm is cancelled before firing) with n pending
// events. Lazy deletion leaves the cancelled node queued, so the
// benchmark periodically advances the clock past the corpses to include
// their pop-and-discard cost.
func BenchmarkAlarmCancel(b *testing.B) {
	for _, algo := range benchAlgos() {
		for _, n := range benchProcs {
			b.Run(fmt.Sprintf("%s/procs=%d", algo, n), func(b *testing.B) {
				s := NewEQ(1, 1, algo)
				preload(s, n)
				fn := func() {}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cancel := s.AfterCancel(100, fn)
					cancel()
					if i%1024 == 1023 {
						s.RunUntil(s.Now() + 200) // recycle the corpses
					}
				}
			})
		}
	}
}

// procSwitchCases are the two ways control moves between proc
// goroutines: a Park/Unpark ping-pong, where each event resumes the
// other proc (a cross-goroutine handoff), and a lone proc looping
// Compute, where each event is the blocking proc's own and it carries on
// with no switch. In both, each virtual nanosecond is one event and one
// resume; the procs retire once their clock reaches *limit.
var procSwitchCases = []struct {
	name  string
	build func(limit *Time) *Sim
}{
	{"pingpong", func(limit *Time) *Sim {
		s := New(2, 1)
		var ping, pong *Proc
		loop := func(p *Proc, peer **Proc) {
			for p.Now() < *limit {
				s.Unpark(*peer, p.Now()+1)
				p.Park()
			}
			if (*peer).State() == StateBlocked {
				s.Unpark(*peer, p.Now())
			}
		}
		pong = s.Go("pong", 1, 0, func(p *Proc) {
			p.Park()
			loop(p, &ping)
		})
		ping = s.Go("ping", 0, 0, func(p *Proc) { loop(p, &pong) })
		return s
	}},
	{"own", func(limit *Time) *Sim {
		s := New(1, 1)
		s.Go("compute", 0, 0, func(p *Proc) {
			for p.Now() < *limit {
				p.Compute(1)
			}
		})
		return s
	}},
}

// BenchmarkProcSwitch measures the host cost of one proc resume under
// Run: ns/op is ns per switch (events/op confirms one event each).
func BenchmarkProcSwitch(b *testing.B) {
	for _, c := range procSwitchCases {
		b.Run(c.name, func(b *testing.B) {
			limit := Time(math.MaxInt64)
			s := c.build(&limit)
			s.RunUntil(64) // start the procs and warm the free list
			limit = 64 + Time(b.N)
			base := s.EventsFired()
			b.ReportAllocs()
			b.ResetTimer()
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(s.EventsFired()-base)/float64(b.N), "events/op")
		})
	}
}

// Both switch paths stay allocation-free in the steady state.
func TestProcSwitchZeroAlloc(t *testing.T) {
	for _, c := range procSwitchCases {
		limit := Time(math.MaxInt64)
		s := c.build(&limit)
		s.RunUntil(64)
		if a := testing.AllocsPerRun(50, func() { s.RunUntil(s.Now() + 64) }); a != 0 {
			t.Errorf("%s: %.1f allocs per 64 switches, want 0", c.name, a)
		}
		limit = 0
		if err := s.Run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}

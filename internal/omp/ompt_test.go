package omp

import (
	"testing"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/ompt"
	"github.com/interweaving/komp/internal/sim"
)

// equivTuple is the layer-independent projection of an event: kinds and
// qualifiers only — timestamps, CPUs and region ids differ by design.
type equivTuple struct {
	k ompt.Kind
	s ompt.Sync
	w ompt.Work
}

// equivKinds are the runtime-emitted kinds compared across layers.
// Thread begin/end is excluded (layer thread ids are a layer concern);
// so is everything schedule-dependent (dynamic/guided chunking, task
// stealing) — the equivalence claim covers deterministic constructs.
var equivKinds = []ompt.Kind{
	ompt.ParallelBegin, ompt.ParallelEnd,
	ompt.ImplicitTaskBegin, ompt.ImplicitTaskEnd,
	ompt.WorkBegin, ompt.WorkEnd, ompt.DispatchChunk,
	ompt.SyncAcquire, ompt.SyncAcquired, ompt.SyncRelease,
}

// equivWorkload runs only deterministic constructs: static loops,
// barriers, criticals, reductions, and single — each thread's event
// sequence is a pure function of the program, not of scheduling.
func equivWorkload(rt *Runtime, tc exec.TC) {
	rt.Parallel(tc, 4, func(w *Worker) {
		w.For(0, 64, ForOpt{Sched: Static}, func(lo, hi int) {})
		w.Barrier()
		w.Critical("equiv", func() {})
		_ = w.Reduce(ReduceSum, float64(w.ThreadNum()))
		w.Single(false, func() {})
		w.For(0, 32, ForOpt{Sched: Static, Chunk: 4, NoWait: true}, func(lo, hi int) {})
		w.Barrier()
	})
}

// TestEventStreamEquivalence asserts that the real layer and the
// simulator produce the same per-thread event sequence for the same
// program: the instrumentation is a property of the runtime, not of the
// layer beneath it.
func TestEventStreamEquivalence(t *testing.T) {
	streams := map[string]map[int32][]equivTuple{}
	for name, mk := range testLayers() {
		sp := ompt.NewSpine()
		rec := ompt.NewRecorder(sp, equivKinds...)
		run(t, mk, Options{MaxThreads: 4, Bind: true, Spine: sp}, equivWorkload)
		per := map[int32][]equivTuple{}
		for th, evs := range rec.PerThread() {
			for _, ev := range evs {
				per[th] = append(per[th], equivTuple{ev.Kind, ev.Sync, ev.Work})
			}
		}
		streams[name] = per
	}
	re, si := streams["real"], streams["sim"]
	if len(re) != len(si) {
		t.Fatalf("thread lanes: real %d, sim %d", len(re), len(si))
	}
	for th, rs := range re {
		ss := si[th]
		if len(rs) != len(ss) {
			t.Errorf("thread %d: real %d events, sim %d", th, len(rs), len(ss))
			continue
		}
		for i := range rs {
			if rs[i] != ss[i] {
				t.Errorf("thread %d event %d: real %v/%v/%v, sim %v/%v/%v",
					th, i, rs[i].k, rs[i].s, rs[i].w, ss[i].k, ss[i].s, ss[i].w)
				break
			}
		}
	}
}

// TestDisabledSpineForIsZeroAlloc asserts the emit fast path on the real
// layer: with no spine attached, a static nowait loop — every emit site
// of the worksharing hot path — performs zero allocations per call.
func TestDisabledSpineForIsZeroAlloc(t *testing.T) {
	layer := exec.NewRealLayer(8)
	rt := New(layer, Options{MaxThreads: 4, Bind: true})
	allocs := -1.0
	_, err := layer.Run(func(tc exec.TC) {
		rt.Parallel(tc, 4, func(w *Worker) {
			if w.ThreadNum() != 0 {
				return
			}
			body := func(lo, hi int) {}
			allocs = testing.AllocsPerRun(200, func() {
				w.For(0, 1024, ForOpt{Sched: Static, NoWait: true}, body)
			})
		})
		rt.Close(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("static nowait For with disabled spine: %v allocs/op, want 0", allocs)
	}
}

// BenchmarkForDisabledSpine records the disabled-spine worksharing fast
// path on the real layer (allocs/op must report 0).
func BenchmarkForDisabledSpine(b *testing.B) {
	layer := exec.NewRealLayer(8)
	rt := New(layer, Options{MaxThreads: 4, Bind: true})
	_, err := layer.Run(func(tc exec.TC) {
		rt.Parallel(tc, 4, func(w *Worker) {
			if w.ThreadNum() != 0 {
				return
			}
			body := func(lo, hi int) {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.For(0, 1024, ForOpt{Sched: Static, NoWait: true}, body)
			}
		})
		rt.Close(tc)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// Every event a thread emits inside a region — through its final join
// SyncAcquired and ImplicitTaskEnd — carries the id of the region it
// entered, even when the master re-forks the hot team before a released
// worker has finished its post-join emits (on the simulator a worker's
// futex wake lands after the master has already forked the next region).
func TestJoinEventsCarryJoinedRegion(t *testing.T) {
	for _, cancellable := range []bool{false, true} {
		sp := ompt.NewSpine()
		rec := ompt.NewRecorder(sp, ompt.ImplicitTaskBegin, ompt.ImplicitTaskEnd,
			ompt.SyncAcquire, ompt.SyncAcquired)
		mk := func() exec.Layer { return exec.NewSimLayer(sim.New(8, 7), simCosts()) }
		run(t, mk, Options{MaxThreads: 8, Spine: sp, Cancellation: cancellable}, func(rt *Runtime, tc exec.TC) {
			for r := 0; r < 6; r++ {
				rt.Parallel(tc, 8, func(w *Worker) { w.TC().Charge(int64(100 * w.ThreadNum())) })
			}
		})
		joins := 0
		for th, evs := range rec.PerThread() {
			var entered uint64
			for _, ev := range evs {
				if ev.Kind == ompt.ImplicitTaskBegin {
					entered = ev.Region
				} else if ev.Region != entered {
					t.Fatalf("cancellable=%v thread %d: %v carries region %d inside region %d",
						cancellable, th, ev.Kind, ev.Region, entered)
				}
				if ev.Kind == ompt.SyncAcquired {
					joins++
				}
			}
		}
		if joins != 6*8 {
			t.Fatalf("cancellable=%v: %d join releases recorded, want %d", cancellable, joins, 6*8)
		}
	}
}

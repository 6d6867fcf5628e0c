package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/interweaving/komp/internal/core"
	"github.com/interweaving/komp/internal/ompt"
)

// simUnit is one independently built and run piece of a simulator mix:
// an environment constructed with core.New, then driven by one call into
// a layer (epcc.Run inside SimLayer.Run, nas.RunModel, ...).
type simUnit struct {
	name string
	// call names the layer entry point the unit drives, for its span.
	call string
	// group names the span and per-module metric the unit's host time
	// accrues to ("epcc.suite_s.SYNCH", "nas.model_s.rtk", ...).
	group string
	// virgil marks units whose tasks are VIRGIL's, not omp's.
	virgil bool
	build  func(seed int64, sp *ompt.Spine) *core.Env
	// run drives the environment, folding its virtual results into d
	// and any layer counters into c.
	run func(env *core.Env, d *digest, c *unitCounts) error
}

// unitCounts are a unit's exact counts: OMPT spine events (traced passes
// only) and the device's own Stats.
type unitCounts struct {
	regions, barriers, chunks, tasks, steals, futex atomic.Int64
	kernels, bytesH2D, bytesD2H                     int64
}

// spine returns an OMPT spine that counts into c.
func (c *unitCounts) spine() *ompt.Spine {
	sp := ompt.NewSpine()
	sp.On(func(ompt.Event) { c.regions.Add(1) }, ompt.ParallelBegin)
	sp.On(func(ompt.Event) { c.chunks.Add(1) }, ompt.DispatchChunk)
	sp.On(func(ompt.Event) { c.tasks.Add(1) }, ompt.TaskCreate)
	sp.On(func(ompt.Event) { c.steals.Add(1) }, ompt.TaskSteal)
	sp.On(func(ev ompt.Event) {
		switch {
		case ev.Sync == ompt.SyncBarrier && ev.Thread == 0:
			// One count per team barrier episode: thread 0 arrives at
			// every barrier of its team exactly once.
			c.barriers.Add(1)
		case ev.Sync == ompt.SyncFutex:
			c.futex.Add(1)
		}
	}, ompt.SyncAcquire)
	return sp
}

// passCounts sums a pass's exact counts.
type passCounts struct {
	events, spilled                                            int64
	regions, barriers, chunks, ompTasks, steals, futex, vtasks int64
	kernels, bytesH2D, bytesD2H                                int64
}

// simPass is the measurement of one pass over a mix.
type simPass struct {
	traced  bool
	runNS   int64     // the units' calls into the layers
	unitNS  []float64 // each unit's share of runNS
	calib   []float64 // host-speed probes, one before each unit
	allocs  uint64
	counts  passCounts
	digests []string
	errs    []error
	groupNS map[string]int64
	profile []byte
}

// runPass builds every unit's environment, then runs every unit.
func runPass(units []simUnit, seed int64, traced bool, tr *tracer) simPass {
	p := simPass{traced: traced, groupNS: map[string]int64{}}
	var passSpan int
	if traced {
		passSpan = tr.begin("pass", 0)
	}
	counts := make([]unitCounts, len(units))
	envs := make([]*core.Env, len(units))
	setupSpan := 0
	if traced {
		setupSpan = tr.begin("core.New", passSpan)
	}
	for i, u := range units {
		var sp *ompt.Spine
		if traced {
			sp = counts[i].spine()
		}
		envs[i] = u.build(seed, sp)
	}
	if traced {
		tr.end(setupSpan)
	}

	var stopProfile func() []byte
	if traced {
		stopProfile = startProfile()
	}
	a0 := heapAllocs()
	for i, u := range units {
		env := envs[i]
		ev0, sp0 := env.Layer.Sim.EventsFired(), env.Layer.Sim.EventsSpilled()
		p.calib = append(p.calib, calibMS())
		d := newDigest(u.name)
		var span int
		if traced {
			span = tr.begin(u.call+" "+u.name, passSpan)
		}
		t := time.Now()
		err := u.run(env, d, &counts[i])
		ns := time.Since(t).Nanoseconds()
		if traced {
			tr.end(span)
		}
		p.runNS += ns
		p.unitNS = append(p.unitNS, float64(ns))
		p.groupNS[u.group] += ns
		p.digests = append(p.digests, d.hex())
		p.errs = append(p.errs, err)
		p.counts.events += env.Layer.Sim.EventsFired() - ev0
		p.counts.spilled += env.Layer.Sim.EventsSpilled() - sp0
		c := &counts[i]
		p.counts.regions += c.regions.Load()
		p.counts.barriers += c.barriers.Load()
		p.counts.chunks += c.chunks.Load()
		p.counts.steals += c.steals.Load()
		p.counts.futex += c.futex.Load()
		if u.virgil {
			p.counts.vtasks += c.tasks.Load()
		} else {
			p.counts.ompTasks += c.tasks.Load()
		}
		p.counts.kernels += c.kernels
		p.counts.bytesH2D += c.bytesH2D
		p.counts.bytesD2H += c.bytesD2H
		envs[i] = nil // let the environment go before the next unit
	}
	p.allocs = heapAllocs() - a0
	if traced {
		p.profile = stopProfile()
		tr.end(passSpan)
	}
	return p
}

// setupReps is how many times a run constructs its environments (or
// service) before measuring; setup_s is a median over them.
const setupReps = 20

// runSim runs a simulator mix for opt.seconds. Untraced, every pass is
// measured; traced, passes alternate untraced and traced (at least one
// of each) so the run yields both the tracing overhead and per-module
// figures.
func runSim(opt options, units []simUnit) (*report, error) {
	rep := &report{}
	// setup_s: construct every environment setupReps times.
	builds := make([][]float64, len(units))
	for r := 0; r < setupReps; r++ {
		for j, u := range units {
			t := time.Now()
			u.build(opt.seed, nil)
			builds[j] = append(builds[j], float64(time.Since(t).Nanoseconds()))
		}
	}

	ref, haveRef := recordedDigest(opt.workload, opt.seed)
	var refUnits []string
	var passes []simPass
	tr := &tracer{}
	end := deadline(opt.seconds)
	for i := 0; ; i++ {
		traced := opt.trace && i%2 == 1
		p := runPass(units, opt.seed, traced, tr)
		passes = append(passes, p)

		if i == 0 {
			refUnits = p.digests
			if haveRef && combine(p.digests) != ref {
				// The mix no longer reproduces the recorded virtual
				// results: every unit of the pass counts as failed.
				rep.notes = append(rep.notes, fmt.Sprintf("pass digest %s differs from the recorded %s for seed %d",
					combine(p.digests), ref, opt.seed))
				rep.failed += int64(len(units))
			}
		}
		rep.attempted += int64(len(units))
		for j, u := range units {
			switch {
			case p.errs[j] != nil:
				rep.failed++
				rep.notes = append(rep.notes, fmt.Sprintf("unit %s: %v", u.name, p.errs[j]))
			case p.digests[j] != refUnits[j]:
				rep.failed++
				rep.notes = append(rep.notes, fmt.Sprintf("unit %s: digest %s, reference %s", u.name, p.digests[j], refUnits[j]))
			}
		}
		if passes[0].counts.events != p.counts.events || passes[0].counts.spilled != p.counts.spilled {
			rep.failed++
			rep.notes = append(rep.notes, fmt.Sprintf("pass %d fired %d events (%d spilled), pass 0 %d (%d)",
				i, p.counts.events, p.counts.spilled, passes[0].counts.events, passes[0].counts.spilled))
		}
		if time.Now().After(end) && (!opt.trace || i >= 1) {
			break
		}
	}

	var walls []float64
	var events, runNS int64
	unitRuns := make([][]float64, len(units))
	var calib []float64
	for _, p := range passes {
		calib = append(calib, p.calib...)
		if !p.traced {
			walls = append(walls, float64(p.runNS)/1e9)
			events += p.counts.events
			runNS += p.runNS
			for j := range units {
				unitRuns[j] = append(unitRuns[j], p.unitNS[j])
			}
		}
	}
	rep.digest = combine(refUnits)
	rep.notes = append(rep.notes, fmt.Sprintf("untraced pass walls (s): %.4g", walls))
	rep.addExtra("passes", float64(len(walls)), "count")
	if !opt.trace {
		// Host interference on a shared machine comes in bursts; a
		// per-unit median drops a burst that hit one unit of one pass,
		// or a garbage collection that hit one construction.
		setHostTimes(rep, sumMedians(unitRuns)/1e9, sumMedians(builds)/1e9, calib)
		rep.addExtra("events_per_s", float64(events)/(float64(runNS)/1e9), "events/s")
		rep.addExtra("events_per_pass", float64(passes[0].counts.events), "events")
		return rep, nil
	}
	rep.set("core.setup_ms", sumMedians(builds)/1e6, "ms")
	simLayerMetrics(rep, passes, walls, tr)
	return rep, nil
}

// simLayerMetrics fills a traced simulator run's per-module metrics.
// Rates and setup come from its untraced passes; spans, profile shares
// and spine counts from its traced ones.
func simLayerMetrics(rep *report, passes []simPass, untracedWalls []float64, tr *tracer) {
	var nsPerEvent, allocsPerEvent, tracedWalls []float64
	groups := map[string][]float64{}
	var prof profileShares
	var counts *passCounts
	for i := range passes {
		p := &passes[i]
		if !p.traced {
			nsPerEvent = append(nsPerEvent, float64(p.runNS)/float64(p.counts.events))
			allocsPerEvent = append(allocsPerEvent, float64(p.allocs)/float64(p.counts.events))
			continue
		}
		tracedWalls = append(tracedWalls, float64(p.runNS)/1e9)
		for g, ns := range p.groupNS {
			groups[g] = append(groups[g], float64(ns)/1e9)
		}
		prof.add(p.profile)
		if counts == nil {
			counts = &p.counts
		} else if *counts != p.counts {
			rep.failed++
			rep.notes = append(rep.notes, "exact counts differ between traced passes")
		}
	}
	c := *counts
	rep.set("sim.ns_per_event", median(nsPerEvent), "ns")
	rep.set("sim.allocs_per_event", median(allocsPerEvent), "allocs")
	rep.set("sim.events", float64(c.events), "count")
	rep.set("sim.spilled", float64(c.spilled), "count")
	for _, g := range layerGroups {
		if len(groups[g]) > 0 {
			rep.set(g, median(groups[g]), "s")
		}
	}
	if xs := groups["device.offload_s"]; len(xs) > 0 {
		rep.set("device.offload_ms", median(xs)*1e3, "ms")
	}
	rep.set("omp.regions", float64(c.regions), "count")
	rep.set("omp.barriers", float64(c.barriers), "count")
	rep.set("omp.chunks", float64(c.chunks), "count")
	rep.set("omp.tasks", float64(c.ompTasks), "count")
	rep.set("omp.steals", float64(c.steals), "count")
	epb := 0.0
	if c.barriers > 0 {
		epb = float64(c.events) / float64(c.barriers)
	}
	rep.set("omp.events_per_barrier", epb, "events")
	rep.set("pik.futex_syscalls", float64(c.futex), "count")
	rep.set("virgil.tasks", float64(c.vtasks), "count")
	rep.set("device.kernels", float64(c.kernels), "count")
	rep.set("device.bytes_h2d", float64(c.bytesH2D), "B")
	rep.set("device.bytes_d2h", float64(c.bytesD2H), "B")
	prof.report(rep)
	rep.set("trace.overhead_frac", median(tracedWalls)/median(untracedWalls)-1, "ratio")
	rep.spans = tr.spans
	rep.notes = append(rep.notes,
		"pik.futex_syscalls counts OMPT SyncFutex events; core's PIK environment models PIK by its cost table and emits none, so it reads 0 until the program traces its futex path")
}

// sumMedians is the sum over units of each unit's median time: the
// typical time of one pass.
func sumMedians(perUnit [][]float64) float64 {
	sum := 0.0
	for _, xs := range perUnit {
		sum += median(xs)
	}
	return sum
}

// layerGroups are the span groups reported as per-module host times.
var layerGroups = []string{
	"epcc.suite_s.SYNCH", "epcc.suite_s.SCHEDULE", "epcc.suite_s.TASK",
	"nas.model_s.linux-omp", "nas.model_s.rtk", "nas.model_s.pik", "nas.model_s.nk-automp",
}

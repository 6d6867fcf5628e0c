package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/omp"
	"github.com/interweaving/komp/internal/tenancy"
)

const (
	// regionLen is each region's loop length (4 Ki float64s).
	regionLen = 4096
	// regionTasks is how many tasks each region's single spawns.
	regionTasks = 8
	// warmupRegions per tenant start the lazy parts of a service (TC,
	// pool workers, hot teams) during setup.
	warmupRegions = 64
	// windowDur is the measurement window: wall_s is the median over
	// windows. Short windows let the median drop bursts of interference
	// from other work on the host.
	windowDur = 50 * time.Millisecond
	// phaseWindows is how many windows a traced run spends in each mode.
	phaseWindows = 10
	// batchRegions is the fixed work wall_s is the host time of.
	batchRegions = 1000
	// calibSamples host-speed probes are taken before and after the
	// timed part (not during it: the tenants keep every CPU busy).
	calibSamples = 30
	// spanRegions is how many regions per tenant a traced run keeps as
	// spans; the per-module figures use every traced region.
	spanRegions = 2000
)

// clock is the benchmark's monotonic nanosecond clock.
var clockBase = time.Now()

func nanotime() int64 { return time.Since(clockBase).Nanoseconds() }

// service is one multi-tenant service built the way komp.NewService
// builds it: a RealLayer, a tenancy.Service with GOMAXPROCS-1 leasable
// workers, admission capped at one region in flight, and a park queue
// deep enough that no submission is rejected. Each loop becomes one
// tenant of it.
type service struct {
	boot exec.TC
	svc  *tenancy.Service
}

func newService(loops []*tenantLoop) *service {
	ncpu := runtime.GOMAXPROCS(0)
	layer := exec.NewRealLayer(ncpu)
	boot := layer.TC()
	s := &service{boot: boot, svc: tenancy.New(boot, layer, tenancy.Config{
		Workers:     max(ncpu-1, 1),
		MaxInflight: 1,
		QueueDepth:  len(loops) + 64,
		Base:        omp.Options{Bind: true},
	})}
	for _, l := range loops {
		l.tn, l.tc = s.svc.Tenant(l.threads), layer.TC()
	}
	return s
}

func (s *service) close() { s.svc.Shutdown(s.boot) }

// tenantLoop is one closed-loop client: it submits a region, waits for
// the join, verifies the result and submits the next. Its buffers and
// region closures are allocated once, so the runtime's own allocations
// are what omp.allocs_per_region counts.
type tenantLoop struct {
	tn      *tenancy.Tenant
	tc      exec.TC
	threads int
	in      []float64
	sumIn   float64
	out     []float64
	rng     uint64
	a, b    float64 // this region's coefficients: out[i] = in[i]*a + b

	body    func(*omp.Worker)
	store   func(i int)
	task    func(*omp.Worker)
	singles []func()
	workers []*omp.Worker
	tasks   atomic.Int32
	sum     float64 // the reduction, as seen by the master

	traced bool
	mark   [4]int64 // master: body start, loop end, reduce end, body end

	// corruptNext damages the next region's output before it is
	// verified (the self-test of the correctness check).
	corruptNext bool

	done, failed, rejected int64
	lat                    []int32 // untraced region latencies, ns
	tr                     tenantTrace
}

// tenantTrace holds a traced window's per-region step durations and the
// first spanRegions regions' spans.
type tenantTrace struct {
	dispatch, join, loop, reduce, tasks []int32
	spans                               []span
	id                                  int64
}

// maxSamples caps the latencies all tenants together keep per series
// (the per-region figures use the first regions of each tenant), so the
// buffers' size does not grow with the host's CPU count.
const maxSamples = 1 << 21

// newTenantLoop makes the loop of tenant i; newService binds it to a
// service. An untraced loop records latencies into lat; a traced one
// allocates its own step buffers.
func newTenantLoop(i, threads int, in []float64, seed int64, lat []int32, samples int) *tenantLoop {
	l := &tenantLoop{threads: threads, in: in, out: make([]float64, regionLen),
		rng: uint64(seed)*1_000_003 + uint64(i), workers: make([]*omp.Worker, threads)}
	for _, v := range in {
		l.sumIn += v
	}
	l.body = l.region
	l.store = func(i int) { l.out[i] = l.in[i]*l.a + l.b }
	l.task = func(*omp.Worker) { l.tasks.Add(1) }
	l.singles = make([]func(), threads)
	for id := 0; id < threads; id++ {
		l.singles[id] = func() {
			w := l.workers[id]
			for k := 0; k < regionTasks; k++ {
				w.Task(l.task)
			}
			w.Taskwait()
		}
	}
	if lat != nil {
		l.lat = lat
		return l
	}
	l.tr = tenantTrace{
		dispatch: sampleBuf(samples), join: sampleBuf(samples), loop: sampleBuf(samples),
		reduce: sampleBuf(samples), tasks: sampleBuf(samples),
		spans: make([]span, 0, 6*spanRegions),
		id:    int64(i+1) << 32,
	}
	return l
}

// region is the parallel region body: a static loop over 4 Ki float64s,
// a sum reduction of the output, and a single that spawns regionTasks
// tasks and waits for them.
func (l *tenantLoop) region(w *omp.Worker) {
	id := w.ThreadNum()
	master := id == 0
	if master && l.traced {
		l.mark[0] = nanotime()
	}
	w.ForEach(0, regionLen, omp.ForOpt{}, l.store)
	if master && l.traced {
		l.mark[1] = nanotime()
	}
	n := w.NumThreads()
	part := 0.0
	for i := id * regionLen / n; i < (id+1)*regionLen/n; i++ {
		part += l.out[i]
	}
	s := w.Reduce(omp.ReduceSum, part)
	if master {
		l.sum = s
		if l.traced {
			l.mark[2] = nanotime()
		}
	}
	l.workers[id] = w
	w.Single(false, l.singles[id])
	if master && l.traced {
		l.mark[3] = nanotime()
	}
}

// next draws the next region's coefficients (small integers, so every
// sum is exact in float64 whatever the reduction order).
func (l *tenantLoop) next() {
	l.rng = splitmix(l.rng)
	l.a = float64(1 + l.rng%8)
	l.b = float64(l.rng >> 8 % 16)
}

// once submits one region and verifies it. It returns the Submit →
// return latency and whether the region ran correctly; a rejected
// submission is an error.
func (l *tenantLoop) once() (int64, bool, error) {
	l.next()
	l.tasks.Store(0)
	t0 := nanotime()
	err := l.tn.Parallel(l.tc, l.threads, l.body)
	t1 := nanotime()
	if err != nil {
		return 0, false, err
	}
	if l.corruptNext {
		l.corruptNext = false
		l.out[regionLen/2]++
	}
	if l.traced {
		l.recordTrace(t0, t1)
	}
	return t1 - t0, l.verify(), nil
}

// verify checks the loop output, the reduction and the task count.
func (l *tenantLoop) verify() bool {
	if l.tasks.Load() != regionTasks || l.sum != l.sumIn*l.a+regionLen*l.b {
		return false
	}
	for i, v := range l.in {
		if l.out[i] != v*l.a+l.b {
			return false
		}
	}
	return true
}

// recordTrace stores a traced region's step durations and, for the
// first spanRegions regions, its spans.
func (l *tenantLoop) recordTrace(t0, t1 int64) {
	tr := &l.tr
	m := l.mark
	if len(tr.dispatch) < cap(tr.dispatch) {
		tr.dispatch = append(tr.dispatch, ns32(m[0]-t0))
		tr.loop = append(tr.loop, ns32(m[1]-m[0]))
		tr.reduce = append(tr.reduce, ns32(m[2]-m[1]))
		tr.tasks = append(tr.tasks, ns32(m[3]-m[2]))
		tr.join = append(tr.join, ns32(t1-m[3]))
	}
	if len(tr.spans)+6 > cap(tr.spans) {
		return
	}
	tr.id++
	root := len(tr.spans) + 1 // 1-based, relative to this tenant's log
	tr.spans = append(tr.spans,
		span{ID: tr.id, Name: "tenancy.Parallel", StartNS: t0, EndNS: t1},
		span{ID: tr.id, Name: "omp.dispatch", Parent: root, StartNS: t0, EndNS: m[0]},
		span{ID: tr.id, Name: "omp.ForEach", Parent: root, StartNS: m[0], EndNS: m[1]},
		span{ID: tr.id, Name: "omp.Reduce", Parent: root, StartNS: m[1], EndNS: m[2]},
		span{ID: tr.id, Name: "omp.Single+Task+Taskwait", Parent: root, StartNS: m[2], EndNS: m[3]},
		span{ID: tr.id, Name: "omp.join", Parent: root, StartNS: m[3], EndNS: t1})
}

// loop runs regions back to back until stop, counting each verified
// region into completed.
func (l *tenantLoop) loop(stop, tracing *atomic.Bool, completed *atomic.Int64) {
	for !stop.Load() {
		l.traced = tracing.Load()
		lat, ok, err := l.once()
		switch {
		case err != nil:
			l.rejected++
			l.failed++
		case !ok:
			l.failed++
		default:
			if !l.traced && len(l.lat) < cap(l.lat) {
				l.lat = append(l.lat, ns32(lat))
			}
			completed.Add(1)
		}
		l.done++
	}
}

// tenantInput is the seed's shared, read-only loop input: integers in
// [0, 1024).
func tenantInput(seed int64) []float64 {
	in := make([]float64, regionLen)
	x := uint64(seed)
	for i := range in {
		x = splitmix(x)
		in[i] = float64(x % 1024)
	}
	return in
}

// sampleBuf returns an empty sample buffer of capacity n whose pages are
// already resident, so the peak RSS does not grow with the number of
// regions a run completes.
func sampleBuf(n int) []int32 {
	b := make([]int32, n)
	for i := range b {
		b[i] = -1
	}
	return b[:0]
}

// ns32 stores a duration in nanoseconds, saturating at ~2.1 s.
func ns32(ns int64) int32 { return int32(min(ns, math.MaxInt32)) }

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// numTenants is the closed loop's client count: one per CPU, at least 2.
func numTenants() int { return max(runtime.GOMAXPROCS(0), 2) }

// runRealTenants runs the real-tenants workload.
func runRealTenants(opt options) (*report, error) {
	rep := &report{}
	in := tenantInput(opt.seed)
	tenants := numTenants()
	// Untraced, every tenant records latencies into its own segment of
	// one buffer, compacted in place at the end.
	per := maxSamples / tenants
	var lat []int32
	if !opt.trace {
		lat = sampleBuf(tenants * per)
	}
	var loops []*tenantLoop
	for i := 0; i < tenants; i++ {
		var seg []int32
		if lat != nil {
			seg = lat[i*per : i*per : (i+1)*per]
		}
		loops = append(loops, newTenantLoop(i, runtime.GOMAXPROCS(0), in, opt.seed, seg, per))
	}

	// Set up several services; keep the last.
	var setups []float64
	var s *service
	for r := 0; r < setupReps; r++ {
		if s != nil {
			s.close()
		}
		t := time.Now()
		s = newService(loops)
		for _, l := range loops {
			for k := 0; k < warmupRegions; k++ {
				_, ok, err := l.once()
				rep.attempted++
				if err != nil || !ok {
					rep.failed++
				}
			}
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer s.close()
	var calib []float64
	for k := 0; k < calibSamples; k++ {
		calib = append(calib, calibMS())
	}

	var stop, tracing atomic.Bool
	var completed atomic.Int64
	var wg sync.WaitGroup
	st0 := s.svc.Stats()
	t0 := time.Now()
	for _, l := range loops {
		wg.Add(1)
		go func(l *tenantLoop) {
			defer wg.Done()
			l.loop(&stop, &tracing, &completed)
		}(l)
	}

	// Windows: wall_s samples. A traced run alternates untraced and
	// traced phases of phaseWindows windows and profiles the traced ones.
	var untracedWalls, tracedWalls []float64
	var prof profileShares
	var allocs, allocRegions uint64
	end := deadline(opt.seconds)
	for phase := 0; time.Now().Before(end); phase++ {
		traced := opt.trace && phase%2 == 1
		tracing.Store(traced)
		var stopProfile func() []byte
		if traced {
			stopProfile = startProfile()
		}
		for w := 0; w < phaseWindows; w++ {
			c0, a0, w0 := completed.Load(), heapAllocs(), time.Now()
			time.Sleep(windowDur)
			c1, a1, dt := completed.Load(), heapAllocs(), time.Since(w0)
			if w == 0 || c1 == c0 {
				continue // straddles the loops' start or the mode switch
			}
			wall := dt.Seconds() / float64(c1-c0) * batchRegions
			if traced {
				tracedWalls = append(tracedWalls, wall)
			} else {
				untracedWalls = append(untracedWalls, wall)
				allocs += a1 - a0
				allocRegions += uint64(c1 - c0)
			}
		}
		if traced {
			prof.add(stopProfile())
		}
	}
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	for k := 0; k < calibSamples; k++ {
		calib = append(calib, calibMS())
	}
	st1 := s.svc.Stats()

	var tr tenantTrace
	var regions int64
	nlat := 0
	for i, l := range loops {
		rep.attempted += l.done
		rep.failed += l.failed
		regions += l.done - l.failed
		nlat += copy(lat[nlat:cap(lat)], l.lat)
		tr.dispatch = append(tr.dispatch, l.tr.dispatch...)
		tr.join = append(tr.join, l.tr.join...)
		tr.loop = append(tr.loop, l.tr.loop...)
		tr.reduce = append(tr.reduce, l.tr.reduce...)
		tr.tasks = append(tr.tasks, l.tr.tasks...)
		off := len(rep.spans)
		for _, sp := range l.tr.spans {
			if sp.Parent != 0 {
				sp.Parent += off
			}
			rep.spans = append(rep.spans, sp)
		}
		if l.rejected > 0 {
			rep.notes = append(rep.notes, fmt.Sprintf("tenant %d: %d submissions rejected", i+1, l.rejected))
		}
	}
	if rep.failed > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("%d regions failed verification or were rejected", rep.failed))
	}
	rep.addExtra("tenants", float64(tenants), "count")
	rep.addExtra("regions_per_s", float64(regions)/elapsed, "regions/s")
	if !opt.trace {
		rep.spans = nil
		rep.notes = append(rep.notes, fmt.Sprintf("window walls (s per %d regions) p10 %.4g p50 %.4g p90 %.4g over %d windows",
			batchRegions, quantile(untracedWalls, 0.1), quantile(untracedWalls, 0.5), quantile(untracedWalls, 0.9), len(untracedWalls)))
		setHostTimes(rep, median(untracedWalls), median(setups), calib)
		lat = lat[:nlat]
		rep.addExtra("region_samples", float64(len(lat)), "count")
		rep.addExtra("region_p50_us", nsQuantileUS(lat, 0.50), "us")
		rep.addExtra("region_p99_us", nsQuantileUS(lat, 0.99), "us")
		return rep, nil
	}
	admitted := float64(st1.Admitted - st0.Admitted)
	rep.set("omp.dispatch_p50_us", nsQuantileUS(tr.dispatch, 0.50), "us")
	rep.set("omp.dispatch_p99_us", nsQuantileUS(tr.dispatch, 0.99), "us")
	rep.set("omp.join_p50_us", nsQuantileUS(tr.join, 0.50), "us")
	rep.set("omp.for_p50_us", nsQuantileUS(tr.loop, 0.50), "us")
	rep.set("omp.reduce_p50_us", nsQuantileUS(tr.reduce, 0.50), "us")
	rep.set("omp.tasks_p50_us", nsQuantileUS(tr.tasks, 0.50), "us")
	rep.addExtra("traced_region_samples", float64(len(tr.dispatch)), "count")
	rep.set("omp.allocs_per_region", float64(allocs)/float64(max(allocRegions, 1)), "allocs")
	rep.set("tenancy.parked_frac", float64(st1.Parked-st0.Parked)/admitted, "ratio")
	rep.set("tenancy.rebalances_per_region", float64(st1.Rebalances-st0.Rebalances)/admitted, "ratio")
	prof.report(rep)
	rep.set("trace.overhead_frac", median(tracedWalls)/median(untracedWalls)-1, "ratio")
	return rep, nil
}

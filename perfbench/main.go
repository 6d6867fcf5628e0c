// Command perfbench is komp's wall-clock benchmark. It drives the
// runtime's layers from outside, through their public functions, on
// three workloads:
//
//	sim-sync      EPCC SYNCH, SCHEDULE and TASK on simulated 8XEON at 192
//	              threads under linux-omp, rtk and pik (fig13's setup).
//	sim-nas       the eight NAS models on 8XEON at 192 threads under
//	              linux-omp, rtk, pik and nk-automp, plus EP offloaded to a
//	              simulated device.
//	real-tenants  a closed loop of tenants on one multi-tenant service over
//	              the real-goroutine layer.
//
// Usage:
//
//	perfbench --workload sim-sync --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run is untraced and reports the end-to-end metrics;
// with --trace 1 it alternates untraced and traced passes and reports
// the per-module metrics. Every line before the last is a human-readable
// record (host, metric by name and unit); the last line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. The command exits
// 1 when any unit or region fails its correctness check.
//
// README.md in this directory documents why each workload was chosen
// and which end-to-end metric each per-module metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// heldOutSeed is the seed later performance claims are confirmed on.
// It is never used while tuning a change.
const heldOutSeed = 104729

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one workload run produces.
type report struct {
	attempted, failed int64
	// metrics are the JSON metrics: the end-to-end set untraced, the
	// per-module set traced.
	metrics map[string]metric
	// extra are printed by name but kept out of the JSON line: figures
	// that exist only on some workloads, and sample counts.
	extra []namedMetric
	// notes explain metrics that a workload cannot measure.
	notes []string
	// spans is the traced run's span log, written at exit.
	spans []span
	// digest is a simulator run's pass digest: its virtual results.
	digest string
}

type namedMetric struct {
	name string
	metric
}

func (r *report) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{v, unit}
}

func (r *report) addExtra(name string, v float64, unit string) {
	r.extra = append(r.extra, namedMetric{name, metric{v, unit}})
}

type metricDef struct{ name, unit string }

// endToEndMetrics are reported by every untraced run; BENCHMARK.json
// lists the same names.
var endToEndMetrics = []metricDef{
	{"wall_s", "s"}, {"setup_s", "s"}, {"max_rss_mb", "MiB"},
}

// perLayerMetrics are reported by every traced run, 0 where the workload
// does not exercise the layer; BENCHMARK.json lists the same names.
var perLayerMetrics = []metricDef{
	{"sim.ns_per_event", "ns"}, {"sim.allocs_per_event", "allocs"},
	{"sim.events", "count"}, {"sim.spilled", "count"}, {"sim.cpu_share", "ratio"},
	{"goruntime.switch_share", "ratio"}, {"goruntime.gc_share", "ratio"},
	{"exec.cpu_share", "ratio"}, {"core.setup_ms", "ms"}, {"core.cpu_share", "ratio"},
	{"nautilus.cpu_share", "ratio"}, {"linuxsim.cpu_share", "ratio"}, {"memsim.cpu_share", "ratio"},
	{"epcc.suite_s.SYNCH", "s"}, {"epcc.suite_s.SCHEDULE", "s"}, {"epcc.suite_s.TASK", "s"},
	{"omp.regions", "count"}, {"omp.barriers", "count"}, {"omp.chunks", "count"},
	{"omp.tasks", "count"}, {"omp.steals", "count"}, {"omp.events_per_barrier", "events"},
	{"omp.cpu_share", "ratio"},
	{"omp.dispatch_p50_us", "us"}, {"omp.dispatch_p99_us", "us"}, {"omp.join_p50_us", "us"},
	{"omp.for_p50_us", "us"}, {"omp.reduce_p50_us", "us"}, {"omp.tasks_p50_us", "us"},
	{"omp.allocs_per_region", "allocs"},
	{"pik.futex_syscalls", "count"}, {"pik.cpu_share", "ratio"},
	{"nas.model_s.linux-omp", "s"}, {"nas.model_s.rtk", "s"}, {"nas.model_s.pik", "s"},
	{"nas.model_s.nk-automp", "s"}, {"nas.cpu_share", "ratio"}, {"cck.cpu_share", "ratio"},
	{"virgil.cpu_share", "ratio"}, {"virgil.tasks", "count"},
	{"device.offload_ms", "ms"}, {"device.kernels", "count"},
	{"device.bytes_h2d", "B"}, {"device.bytes_d2h", "B"},
	{"tenancy.parked_frac", "ratio"}, {"tenancy.rebalances_per_region", "ratio"},
	{"tenancy.cpu_share", "ratio"}, {"trace.overhead_frac", "ratio"},
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

// workloadFunc runs one workload for opt.seconds and reports.
type workloadFunc func(opt options) (*report, error)

var workloads = map[string]workloadFunc{
	"sim-sync":     runSimSync,
	"sim-nas":      runSimNAS,
	"real-tenants": runRealTenants,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	var opt options
	var traceFlag int
	flag.StringVar(&opt.workload, "workload", "", "workload: sim-sync, sim-nas, real-tenants, or all")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed (inputs and simulators derive from it)")
	flag.Float64Var(&opt.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-module metrics")
	flag.Parse()
	opt.trace = traceFlag != 0
	// Span logs go with the build outputs.
	opt.outDir = os.Getenv("CARGO_TARGET_DIR")
	if opt.outDir == "" {
		opt.outDir = ".bench_build"
	}
	names := []string{opt.workload}
	if opt.workload == "all" {
		names = workloadNames()
	}
	ok := true
	for _, name := range names {
		run, found := workloads[name]
		if !found {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v or all)\n", name, workloadNames())
			os.Exit(2)
		}
		o := opt
		o.workload = name
		if !runOne(o, run) {
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs a workload, prints its record and JSON line, and reports
// whether every operation passed.
func runOne(opt options, run workloadFunc) bool {
	printHost(opt)
	rep, err := run(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", opt.workload, err)
		return false
	}
	if !opt.trace {
		rep.set("max_rss_mb", maxRSSMiB(), "MiB")
	}
	frac := 0.0
	if rep.attempted > 0 {
		frac = float64(rep.failed) / float64(rep.attempted)
	}
	rep.addExtra("failed_frac", frac, "ratio")
	if opt.trace {
		var missing []string
		for _, pm := range perLayerMetrics {
			if _, ok := rep.metrics[pm.name]; !ok {
				rep.set(pm.name, 0, pm.unit)
				missing = append(missing, pm.name)
			}
		}
		if len(missing) > 0 {
			rep.notes = append(rep.notes, fmt.Sprintf("not exercised by %s, reported as 0: %s",
				opt.workload, strings.Join(missing, " ")))
		}
	}
	for _, n := range sortedKeys(rep.metrics) {
		m := rep.metrics[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// A metric without a value is a failed measurement.
			rep.notes = append(rep.notes, fmt.Sprintf("%s could not be measured (%v)", n, m.Value))
			rep.failed++
			m.Value = 0
			rep.metrics[n] = m
		}
		fmt.Printf("metric %-30s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for _, m := range rep.extra {
		fmt.Printf("metric %-30s %16.6g %s\n", m.name, m.Value, m.Unit)
	}
	if rep.digest != "" {
		fmt.Printf("digest %s %d %s\n", opt.workload, opt.seed, rep.digest)
	}
	for _, n := range rep.notes {
		fmt.Printf("note %s\n", n)
	}
	if len(rep.spans) > 0 {
		path := filepath.Join(opt.outDir, "spans", fmt.Sprintf("%s-%d.jsonl", opt.workload, opt.seed))
		if err := writeSpans(path, rep.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return false
		}
		fmt.Printf("spans %d written to %s\n", len(rep.spans), path)
	}
	correct := rep.failed == 0 && rep.attempted > 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding the result: %v\n", err)
		return false
	}
	fmt.Println(string(line))
	return correct
}

// printHost records the host the result was measured on.
func printHost(opt options) {
	fmt.Printf("host workload=%s nproc=%d gomaxprocs=%d go=%s os=%s/%s commit=%s source=%s seed=%d heldout_seed=%d trace=%t seconds=%g\n",
		opt.workload, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		runtime.GOOS, runtime.GOARCH, commit(), sourceDigest(), opt.seed, heldOutSeed, opt.trace, opt.seconds)
}

// commit is the checkout's git commit, or "none" outside a git
// repository (set by run.sh).
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "none"
}

// maxRSSMiB is the process's peak resident set.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func sortedKeys(m map[string]metric) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// deadline is the end of a run's measured part.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

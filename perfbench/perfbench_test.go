package main

import (
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// tinyThreads keeps the self-tests' simulated teams small and fast.
const tinyThreads = 8

// tinySync is a small sim-sync mix: two suites under two environments.
func tinySync() []simUnit {
	var out []simUnit
	for _, u := range simSyncUnits(tinyThreads) {
		switch u.name {
		case "SYNCH/linux-omp", "TASK/linux-omp", "SYNCH/pik":
			out = append(out, u)
		}
	}
	return out
}

// tinyNAS is one NAS model plus the device offload point.
func tinyNAS() []simUnit {
	var out []simUnit
	for _, u := range simNASUnits(tinyThreads) {
		if u.name == "IS/rtk" || u.name == "EP/offload" {
			out = append(out, u)
		}
	}
	return out
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var bm struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, listed []struct{ Name, Unit string }) {
		if len(defs) != len(listed) {
			t.Fatalf("%s: perfbench reports %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(listed))
		}
		seen := map[string]bool{}
		for i, d := range defs {
			if !valid.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s metric %q: invalid or duplicate name", kind, d.name)
			}
			seen[d.name] = true
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s metric %d: perfbench %s [%s], BENCHMARK.json %s [%s]",
					kind, i, d.name, d.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	check("end_to_end", endToEndMetrics, bm.EndToEnd)
	check("per_layer", perLayerMetrics, bm.PerLayer)
}

// Each mix runs three times with one seed, untraced and twice traced: the
// digests and event counts must be identical, and the traced passes must
// agree on every exact count.
func TestSameSeedSameDigestsAndCounts(t *testing.T) {
	for name, units := range map[string][]simUnit{"sync": tinySync(), "nas": tinyNAS()} {
		plain := runPass(units, 7, false, &tracer{})
		traced1 := runPass(units, 7, true, &tracer{})
		traced2 := runPass(units, 7, true, &tracer{})
		for i := range units {
			if plain.errs[i] != nil {
				t.Fatalf("%s: unit %s: %v", name, units[i].name, plain.errs[i])
			}
		}
		if combine(plain.digests) != combine(traced1.digests) || combine(traced1.digests) != combine(traced2.digests) {
			t.Errorf("%s: digests differ: untraced %v, traced %v, %v", name, plain.digests, traced1.digests, traced2.digests)
		}
		if plain.counts.events != traced1.counts.events || plain.counts.spilled != traced1.counts.spilled {
			t.Errorf("%s: tracing changed the event count: %d vs %d", name, plain.counts.events, traced1.counts.events)
		}
		if traced1.counts != traced2.counts {
			t.Errorf("%s: exact counts differ between runs: %+v vs %+v", name, traced1.counts, traced2.counts)
		}
		if traced1.counts.events == 0 || traced1.counts.regions+traced1.counts.vtasks == 0 {
			t.Errorf("%s: counters read nothing: %+v", name, traced1.counts)
		}
	}
}

func TestDeviceCountsExact(t *testing.T) {
	p := runPass(tinyNAS(), 3, true, &tracer{})
	q := runPass(tinyNAS(), 3, true, &tracer{})
	if p.counts.kernels == 0 || p.counts.bytesH2D == 0 {
		t.Fatalf("offload counted no traffic: %+v", p.counts)
	}
	if p.counts.kernels != q.counts.kernels || p.counts.bytesH2D != q.counts.bytesH2D || p.counts.bytesD2H != q.counts.bytesD2H {
		t.Errorf("device counts differ: %+v vs %+v", p.counts, q.counts)
	}
}

func TestSeedChangesSyncDigest(t *testing.T) {
	a := runPass(tinySync(), 1, false, &tracer{})
	b := runPass(tinySync(), 2, false, &tracer{})
	if combine(a.digests) == combine(b.digests) {
		t.Fatalf("seeds 1 and 2 gave the same sim-sync digest %s", combine(a.digests))
	}
}

// A wrong recorded digest must count the pass's units as failed.
func TestCorruptedDigestCountsAsFailure(t *testing.T) {
	units := tinySync()
	opt := options{workload: "selftest", seed: 5, seconds: 0}
	rep, err := runSim(opt, units)
	if err != nil || rep.failed != 0 {
		t.Fatalf("clean run: failed %d, err %v, notes %v", rep.failed, err, rep.notes)
	}
	digestTable["selftest/5"] = rep.digest
	defer delete(digestTable, "selftest/5")
	if rep, _ = runSim(opt, units); rep.failed != 0 {
		t.Fatalf("recorded digest %s not reproduced: %v", rep.digest, rep.notes)
	}
	digestTable["selftest/5"] = "0000000000000000"
	rep, _ = runSim(opt, units)
	if rep.failed != int64(len(units)) {
		t.Fatalf("corrupted digest: failed %d of %d, want all", rep.failed, rep.attempted)
	}
}

// A damaged region result must be caught by verify and counted by the
// closed loop.
func TestCorruptedRegionCountsAsFailure(t *testing.T) {
	in := tenantInput(9)
	loops := []*tenantLoop{newTenantLoop(0, runtime.GOMAXPROCS(0), in, 9, sampleBuf(1024), 1024)}
	s := newService(loops)
	defer s.close()
	l := loops[0]
	if _, ok, err := l.once(); err != nil || !ok {
		t.Fatalf("clean region: ok=%v err=%v", ok, err)
	}
	l.corruptNext = true
	if _, ok, _ := l.once(); ok {
		t.Fatal("corrupted region verified")
	}
	l.corruptNext = true
	var stop, tracing atomic.Bool
	var completed atomic.Int64
	go func() {
		time.Sleep(20 * time.Millisecond)
		stop.Store(true)
	}()
	l.loop(&stop, &tracing, &completed)
	if l.failed != 1 || completed.Load() != l.done-1 {
		t.Fatalf("loop counted failed=%d done=%d completed=%d, want 1 failure", l.failed, l.done, completed.Load())
	}
}

func TestOwner(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memmove", modulePrefix + "sim.(*Sim).Run", "main.main"}, "sim"},
		{[]string{"runtime.futex", "runtime.chanrecv", modulePrefix + "sim.(*Proc).block"}, "goruntime.switch"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "goruntime.gc"},
		{[]string{modulePrefix + "omp/inner.f", modulePrefix + "exec.g"}, "omp"},
		{[]string{"main.spin"}, "other"},
	} {
		if got := owner(c.frames); got != c.want {
			t.Errorf("owner(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

var spinSink uint64

func spinForProfile(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			spinSink = splitmix(spinSink)
		}
	}
}

// The decoder must recover the profiled stacks' function names.
func TestDecodeProfile(t *testing.T) {
	stop := startProfile()
	spinForProfile(300 * time.Millisecond)
	p, err := decodeProfile(stop())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, smp := range p.samples {
		for _, loc := range smp.locs {
			for _, fn := range p.locFuncs[loc] {
				if strings.HasSuffix(p.strings[p.funcName[fn]], ".spinForProfile") && smp.count > 0 {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatalf("no sample in spinForProfile among %d samples", len(p.samples))
	}
}

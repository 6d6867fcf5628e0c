package main

import (
	"github.com/interweaving/komp/internal/core"
	"github.com/interweaving/komp/internal/epcc"
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/ompt"
)

// simThreads is the team size of both simulator mixes: full 8XEON.
const simThreads = 192

// syncSuites are the EPCC suites of sim-sync: fork/barrier, worksharing
// and tasking storms (ARRAY is a copy model with little sync).
var syncSuites = []string{"SYNCH", "SCHEDULE", "TASK"}

// syncConfig is fig13's EPCC configuration with the repetitions cut so
// one pass of the mix takes a few seconds of host time.
func syncConfig(threads int) epcc.Config {
	cfg := epcc.Defaults(threads)
	cfg.OuterReps = 1
	cfg.InnerReps = 1
	return cfg
}

// simSyncUnits is the sim-sync mix at the given team size (simThreads in
// the benchmark): each suite under each fig13 environment, every one on
// a freshly constructed environment.
func simSyncUnits(threads int) []simUnit {
	var units []simUnit
	for _, kind := range []core.Kind{core.Linux, core.RTK, core.PIK} {
		for _, suite := range syncSuites {
			units = append(units, simUnit{
				name:  suite + "/" + kind.String(),
				call:  "epcc.Run",
				group: "epcc.suite_s." + suite,
				build: func(seed int64, sp *ompt.Spine) *core.Env {
					return core.New(core.Config{Machine: machine.XEON8(), Kind: kind, Seed: seed,
						Threads: threads, Spine: sp})
				},
				run: func(env *core.Env, d *digest, _ *unitCounts) error {
					return runEPCCUnit(env, suite, threads, d)
				},
			})
		}
	}
	return units
}

// runEPCCUnit runs one EPCC suite on env's OpenMP runtime and digests
// the per-directive overheads and the elapsed virtual time.
func runEPCCUnit(env *core.Env, suite string, threads int, d *digest) error {
	rt := env.OMPRuntime()
	var res []epcc.Result
	var runErr error
	elapsed, err := env.Layer.Run(func(tc exec.TC) {
		defer rt.Close(tc)
		res, runErr = epcc.Run(tc, rt, suite, syncConfig(threads))
	})
	if err == nil {
		err = runErr
	}
	if err != nil {
		return err
	}
	d.i64(elapsed)
	for _, r := range res {
		d.str(r.Name)
		d.f64(r.OverheadUS)
		d.f64(r.SDUS)
	}
	return nil
}

func runSimSync(opt options) (*report, error) { return runSim(opt, simSyncUnits(simThreads)) }

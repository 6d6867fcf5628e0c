package main

import (
	"fmt"

	"github.com/interweaving/komp/internal/core"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/nas"
	"github.com/interweaving/komp/internal/ompt"
)

// Device geometry of the EP offload point (fig11's).
const devCUs, devLanes = 32, 64

// simNASUnits is the sim-nas mix at the given thread count (simThreads
// in the benchmark): every NAS model under every fig14/15 environment,
// then EP offloaded to a simulated device.
func simNASUnits(threads int) []simUnit {
	var units []simUnit
	for _, kind := range []core.Kind{core.Linux, core.RTK, core.PIK, core.CCK} {
		for _, s := range nas.Specs() {
			units = append(units, simUnit{
				name:   s.Name + "/" + kind.String(),
				call:   "nas.RunModel",
				group:  "nas.model_s." + kind.String(),
				virgil: kind == core.CCK,
				build: func(seed int64, sp *ompt.Spine) *core.Env {
					return core.New(core.Config{Machine: machine.XEON8(), Kind: kind, Seed: seed,
						Threads: threads, BootImageBytes: bootImageBytes(kind, s), Spine: sp})
				},
				run: func(env *core.Env, d *digest, _ *unitCounts) error {
					res, err := nas.RunModel(env, s, threads)
					if err != nil {
						return err
					}
					d.f64(res.Seconds)
					return nil
				},
			})
		}
	}
	ep := nas.SpecByName("EP")
	units = append(units, simUnit{
		name:   "EP/offload",
		call:   "nas.RunOffloadModel",
		group:  "device.offload_s",
		virgil: true,
		build: func(seed int64, sp *ompt.Spine) *core.Env {
			return core.New(core.Config{Machine: machine.WithDevice(machine.XEON8(), devCUs, devLanes),
				Kind: core.CCK, Seed: seed, Threads: 1, BootImageBytes: ep.WorkingSetBytes, Spine: sp})
		},
		run: func(env *core.Env, d *digest, c *unitCounts) error {
			res, err := nas.RunOffloadModel(env, ep, 0)
			if err != nil {
				return err
			}
			st := env.Device().Stats()
			if st.Kernels == 0 || st.BytesH2D == 0 {
				return fmt.Errorf("offload moved no data (%+v)", st)
			}
			c.kernels, c.bytesH2D, c.bytesD2H = st.Kernels, st.BytesH2D, st.BytesD2H
			d.f64(res.Seconds)
			d.i64(st.Kernels)
			d.i64(st.BytesH2D)
			d.i64(st.BytesD2H)
			return nil
		},
	})
	return units
}

// bootImageBytes: RTK and CCK link the benchmark's statics into the boot
// image (§6.2), as the figures do.
func bootImageBytes(kind core.Kind, s *nas.Spec) int64 {
	if kind == core.RTK || kind == core.CCK {
		return s.WorkingSetBytes
	}
	return 0
}

func runSimNAS(opt options) (*report, error) { return runSim(opt, simNASUnits(simThreads)) }

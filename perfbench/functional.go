package main

import (
	"fmt"
	"maps"
	"strings"

	"sunuintah/internal/core"
	"sunuintah/internal/experiments"
	"sunuintah/internal/physics"
	"sunuintah/internal/runner"
)

// The functional workload: a small case with real field arithmetic on a
// seeded mixture of the three model problems, on the serial engine. It is
// the only workload where kernels, boundary fills, halo copies and
// warehouses do the work. One run cycles through functionalCycle
// mixtures derived from the workload seed and always stops at a cycle
// boundary, so every run of a seed covers the same inputs.
const (
	functionalSteps   = 40
	functionalCycle   = 4
	functionalRefFile = "functional.json"
	functionalMix     = "mix:burgers=1,advection=1,heat3d=1,seed=%d"
	functionalPatches = 4 * 4 * 2
)

// functionalShares is the composition every mixture must have: a
// mixture's cost follows its share of the expensive Burgers model, so
// holding the composition fixed keeps every seed's run the same amount of
// work, while the seed still decides which patches run which model.
var functionalShares = map[string]int{"burgers": 11, "advection": 11, "heat3d": 10}

// functionalMixSeed returns the physics-mixture seed of unit sub: the
// sub-th seed, in a stream derived from the workload seed, whose mixture
// has functionalShares.
func functionalMixSeed(seed uint64, sub int) (uint64, error) {
	found := 0
	for k := uint64(0); k < 1<<20; k++ {
		cand := seed<<20 + k
		sel, err := physics.Parse(fmt.Sprintf(functionalMix, cand))
		if err != nil {
			return 0, err
		}
		counts := map[string]int{}
		for _, i := range sel.Assign(functionalPatches) {
			counts[sel.Shares[i].Name]++
		}
		if maps.Equal(counts, functionalShares) {
			if found == sub {
				return cand, nil
			}
			found++
		}
	}
	return 0, fmt.Errorf("functional: no balanced mixture for seed %d", seed)
}

func functionalKey(seed uint64, sub int) string {
	return fmt.Sprintf("seed=%d/sub=%d", seed, sub)
}

func functionalSpec(mixSeed uint64, shards int) runner.Spec {
	return runner.Spec{
		Cells:      "64x64x128",
		Layout:     "4x4x2",
		CGs:        8,
		Variant:    "acc_simd.async",
		Steps:      functionalSteps,
		Functional: true,
		Physics:    fmt.Sprintf(functionalMix, mixSeed),
		Shards:     shards,
	}
}

func functionalConfig(seed uint64, sub, shards int) (core.Config, core.Problem, error) {
	mixSeed, err := functionalMixSeed(seed, sub)
	if err != nil {
		return core.Config{}, core.Problem{}, err
	}
	return experiments.SpecConfig(functionalSpec(mixSeed, shards))
}

// functionalReference steps one mixture on the engine with the given
// shard count (0: serial).
func functionalReference(seed uint64, sub, shards int) (simRef, error) {
	cfg, prob, err := functionalConfig(seed, sub, shards)
	if err != nil {
		return simRef{}, err
	}
	return steppedReference(cfg, prob, functionalSteps, true)
}

func runFunctional(cfg config, o *outcome) error {
	var stored map[string]simRef
	if err := loadJSON(cfg.refs, functionalRefFile, &stored); err != nil {
		return err
	}
	// Seeds without stored references are checked against a sharded run
	// of each mixture (results are bit-identical across engines), made
	// once the measurement is over; repeats of a mixture within the run
	// must match its first unit.
	seen := map[int]simRef{}
	var packBps []float64
	st, err := runUnits(cfg, functionalCycle, functionalCycle, functionalSteps, func(i int, traced bool) (unitResult, error) {
		sub := i % functionalCycle
		simCfg, prob, err := functionalConfig(cfg.seed, sub, 0)
		if err != nil {
			return unitResult{}, err
		}
		r, err := runStepped(simCfg, prob, functionalSteps)
		o.attempted += functionalSteps
		if err != nil {
			o.failed += functionalSteps
			return unitResult{}, err
		}
		got := r.ref()
		if got.Fields, err = fieldChecksums(r.sim); err != nil {
			o.mismatch("functional unit %d: %v", i, err)
		}
		want, ok := stored[functionalKey(cfg.seed, sub)]
		if !ok {
			want, ok = seen[sub]
		}
		if ok {
			if d := want.diff(got); len(d) > 0 {
				o.mismatch("functional unit %d (%s): %s", i, functionalKey(cfg.seed, sub), strings.Join(d, "; "))
			}
		} else {
			seen[sub] = got
		}
		cells := simCfg.Cells.X * simCfg.Cells.Y * simCfg.Cells.Z
		u, err := r.unit(simCfg.NumCGs, int64(cells), traced)
		if err == nil && traced {
			var bps float64
			bps, err = packThroughput(r.sim)
			packBps = append(packBps, bps)
		}
		return u, err
	})
	if err != nil {
		return fmt.Errorf("functional: %w", err)
	}
	for sub, got := range seen {
		want, err := functionalReference(cfg.seed, sub, max(cfg.workers, 2))
		if err != nil {
			return fmt.Errorf("functional: sharded reference: %w", err)
		}
		if d := want.diff(got); len(d) > 0 {
			o.mismatch("functional %s vs sharded engine: %s", functionalKey(cfg.seed, sub), strings.Join(d, "; "))
		}
	}
	if cfg.trace {
		if err := st.setLayers(o); err != nil {
			return err
		}
		o.values["field.pack.bytes_per_s"] = median(packBps)
		return nil
	}
	return st.setE2E(o, median(collect(st.plain, func(r unitResult) float64 { return r.setupS })))
}

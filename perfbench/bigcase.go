package main

import (
	"fmt"
	"strings"

	"sunuintah/internal/core"
	"sunuintah/internal/experiments"
	"sunuintah/internal/runner"
)

// The bigcase workload: one paper-scale timing-only case on the sharded
// engine, stepped by Run(1). It is the only workload that drives shard
// windows and cross-shard mail. The paper's matrix fixes its input, so
// the seed selects nothing.
const (
	bigcaseSteps   = 20
	bigcaseRefFile = "bigcase.json"
)

func bigcaseConfig(shards int) (core.Config, core.Problem, error) {
	return experiments.SpecConfig(runner.Spec{
		Problem: "128x128x512", CGs: 128, Variant: "acc_simd.async", Steps: bigcaseSteps, Shards: shards,
	})
}

// bigcaseReference steps the case on the serial engine.
func bigcaseReference() (simRef, error) {
	cfg, prob, err := bigcaseConfig(0)
	if err != nil {
		return simRef{}, err
	}
	return steppedReference(cfg, prob, bigcaseSteps, false)
}

func runBigcase(cfg config, o *outcome) error {
	var want simRef
	if err := loadJSON(cfg.refs, bigcaseRefFile, &want); err != nil {
		return err
	}
	simCfg, prob, err := bigcaseConfig(cfg.workers)
	if err != nil {
		return err
	}
	cells := simCfg.Cells.X * simCfg.Cells.Y * simCfg.Cells.Z
	st, err := runUnits(cfg, 3, 1, bigcaseSteps, func(i int, traced bool) (unitResult, error) {
		r, err := runStepped(simCfg, prob, bigcaseSteps)
		o.attempted += bigcaseSteps
		if err != nil {
			o.failed += bigcaseSteps
			return unitResult{}, err
		}
		if d := want.diff(r.ref()); len(d) > 0 {
			o.mismatch("bigcase unit %d: %s", i, strings.Join(d, "; "))
		}
		return r.unit(simCfg.NumCGs, int64(cells), traced)
	})
	if err != nil {
		return fmt.Errorf("bigcase: %w", err)
	}
	if cfg.trace {
		return st.setLayers(o)
	}
	return st.setE2E(o, median(collect(st.plain, func(r unitResult) float64 { return r.setupS })))
}

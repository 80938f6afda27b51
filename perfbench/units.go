package main

import (
	"fmt"
	"syscall"
	"time"
)

// unitResult is what one unit of a simulation workload reports: the wall
// and process CPU of its measured part (set-up excluded) and the work it
// completed.
type unitResult struct {
	wallS, cpuS          float64
	rankSteps, cellSteps float64
	stealS               float64   // host steal during the measured part
	setupS               float64   // this unit's set-up (summed over a sweep's cases when traced)
	doneMS               []float64 // due -> done latency of each item
	events               float64   // engine events (traced units)
	kernelCells, flops   float64
	dmaBytes, wireBytes  float64
	tasks                float64
	stepS                []float64 // Run(1) spans
	compileS             float64
	queueWaitS, execS    []float64
	hitFrac, renderS     float64
}

// unitFunc runs unit i; traced units may spend extra effort on counts.
type unitFunc func(i int, traced bool) (unitResult, error)

// loopStats splits a run's units into the untraced ones, which give the
// end-to-end metrics, and the traced ones, which give the per-layer
// metrics.
type loopStats struct {
	plain, traced []unitResult
	prof          *profAgg
	rt            rtSample // runtime/metrics delta over the traced units
	tracedCPU     float64
}

// runUnits runs units until cfg.seconds have passed and at least minUnits
// have run, stopping only after a multiple of cycle units so every run
// covers the same inputs. A traced run alternates untraced and traced
// units (at least two of each) so it can report its own overhead, and
// runs enough traced units that the stepsPerUnit Run(1) spans each yields
// add up to the sample sim.step_p90_s needs, however slow the host.
func runUnits(cfg config, minUnits, cycle, stepsPerUnit int, unit unitFunc) (*loopStats, error) {
	st := &loopStats{prof: newProfAgg()}
	if cfg.trace {
		minTraced := 2
		if stepsPerUnit > 0 {
			minTraced = max(minTraced, ceilDiv(p90Samples, stepsPerUnit))
		}
		minUnits = max(minUnits, 2*minTraced)
	}
	start := time.Now()
	for i := 0; ; i++ {
		if i >= minUnits && i%cycle == 0 && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
		traced := cfg.trace && i%2 == 1
		var prof *cpuProfiler
		var rt0 rtSample
		var cpu0 float64
		if traced {
			var err error
			if prof, err = startCPUProfile(); err != nil {
				return nil, err
			}
			rt0, cpu0 = readRuntime(), selfCPU()
		}
		r, err := unit(i, traced)
		r.unsteal()
		if traced {
			st.rt = st.rt.add(readRuntime().sub(rt0))
			st.tracedCPU += selfCPU() - cpu0
			if perr := prof.stop(st.prof); perr != nil && err == nil {
				err = perr
			}
		}
		if err != nil {
			return nil, fmt.Errorf("unit %d: %w", i, err)
		}
		if traced {
			st.traced = append(st.traced, r)
		} else {
			st.plain = append(st.plain, r)
		}
	}
	return st, nil
}

// unsteal takes the hypervisor steal out of the unit's wall-clock spans
// (see unstealFactor): wall-clock metrics follow the program, not the
// neighbours of the machine it runs on.
func (r *unitResult) unsteal() {
	f := unstealFactor(r.wallS, r.stealS)
	r.wallS *= f
	r.setupS *= f
	for _, xs := range [][]float64{r.doneMS, r.stepS, r.queueWaitS, r.execS} {
		for i := range xs {
			xs[i] *= f
		}
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func collect(rs []unitResult, f func(unitResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

func concat(rs []unitResult, f func(unitResult) []float64) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, f(r)...)
	}
	return out
}

// setE2E fills the end-to-end metrics from the untraced units. setupS is
// the median set-up sample, taken by the caller.
func (st *loopStats) setE2E(o *outcome, setupS float64) error {
	rs := st.plain
	cpu := sum(collect(rs, func(r unitResult) float64 { return r.cpuS }))
	if cpu <= 0 {
		return fmt.Errorf("no CPU time measured")
	}
	if err := o.setDone(concat(rs, func(r unitResult) []float64 { return r.doneMS })); err != nil {
		return err
	}
	o.values["setup_s"] = setupS
	o.values["wall_s"] = median(collect(rs, func(r unitResult) float64 { return r.wallS }))
	o.values["rank_steps_per_cpu_s"] = sum(collect(rs, func(r unitResult) float64 { return r.rankSteps })) / cpu
	o.values["cell_steps_per_cpu_s"] = sum(collect(rs, func(r unitResult) float64 { return r.cellSteps })) / cpu
	o.values["peak_rss_mib"] = rusage(syscall.RUSAGE_SELF).maxRSS
	return nil
}

// setLayers fills the per-layer metrics the traced units measured. Counts
// are per unit; spans are medians over the traced units.
func (st *loopStats) setLayers(o *outcome) error {
	setLayerDefaults(o)
	rs := st.traced
	n := float64(len(rs))
	perUnit := func(f func(unitResult) float64) float64 { return sum(collect(rs, f)) / n }
	a := st.prof
	for _, l := range profLayers {
		o.values[l+".cpu_frac"] = a.frac(a.layer[l])
	}
	o.values["kernel.exact_bc.cpu_frac"] = a.frac(a.exactBC)
	o.values["runtime.sched.cpu_frac"] = a.frac(a.sched)
	if st.rt.usedCPU > 0 {
		o.values["runtime.gc.cpu_frac"] = st.rt.gcCPU / st.rt.usedCPU
	}
	if rankSteps := perUnit(func(r unitResult) float64 { return r.rankSteps }); rankSteps > 0 {
		o.values["runtime.alloc_bytes_per_rank_step"] = st.rt.allocBytes / n / rankSteps
	}
	o.values["kernel.cells"] = perUnit(func(r unitResult) float64 { return r.kernelCells })
	o.values["kernel.flops"] = perUnit(func(r unitResult) float64 { return r.flops })
	o.values["athread.dma_bytes"] = perUnit(func(r unitResult) float64 { return r.dmaBytes })
	o.values["mpisim.bytes_on_wire"] = perUnit(func(r unitResult) float64 { return r.wireBytes })
	o.values["scheduler.tasks"] = perUnit(func(r unitResult) float64 { return r.tasks })
	events := perUnit(func(r unitResult) float64 { return r.events })
	o.values["sim.events"] = events
	if events > 0 {
		o.values["sim.cpu_ns_per_event"] = st.tracedCPU / n / events * 1e9
	}
	if steps := concat(rs, func(r unitResult) []float64 { return r.stepS }); len(steps) > 0 {
		var err error
		if o.values["sim.step_p50_s"], err = percentile(steps, 0.5); err != nil {
			return fmt.Errorf("step spans: %w", err)
		}
		if o.values["sim.step_p90_s"], err = percentile(steps, 0.9); err != nil {
			return fmt.Errorf("step spans: %w", err)
		}
	}
	o.values["setup.newsim_s"] = median(collect(rs, func(r unitResult) float64 { return r.setupS }))
	o.values["setup.compile_s"] = median(collect(rs, func(r unitResult) float64 { return r.compileS }))
	if qw := concat(rs, func(r unitResult) []float64 { return r.queueWaitS }); len(qw) > 0 {
		o.values["runner.queue_wait_s"] = median(qw)
		o.values["runner.exec_s"] = median(concat(rs, func(r unitResult) []float64 { return r.execS }))
	}
	o.values["runner.hit_frac"] = median(collect(rs, func(r unitResult) float64 { return r.hitFrac }))
	o.values["experiments.render_s"] = median(collect(rs, func(r unitResult) float64 { return r.renderS }))

	wall := func(r unitResult) float64 { return r.wallS }
	cpu := func(r unitResult) float64 { return r.cpuS }
	o.values["trace.overhead_wall_frac"] = median(collect(rs, wall))/median(collect(st.plain, wall)) - 1
	o.values["trace.overhead_cpu_frac"] = median(collect(rs, cpu))/median(collect(st.plain, cpu)) - 1
	return nil
}

package main

import (
	"time"

	"sunuintah/internal/core"
	"sunuintah/internal/sim"
	"sunuintah/internal/taskgraph"
)

// steppedRun is one simulation built and advanced by repeated Run(1), the
// way a user steps a case and watches each step land.
type steppedRun struct {
	sim       *core.Simulation
	setupS    float64
	stepS     []float64
	wallS     float64
	cpuS      float64
	stealS    float64
	endTime   sim.Time // virtual time at which the last step finished
	flops     int64    // CPE and MPE
	cells     int64
	dmaBytes  int64
	wireBytes int64
	tasks     int64
}

// runStepped builds the simulation (timed as set-up) and advances it
// steps times by Run(1), timing each call.
func runStepped(cfg core.Config, prob core.Problem, steps int) (*steppedRun, error) {
	t0 := time.Now()
	s, err := core.NewSimulation(cfg, prob)
	if err != nil {
		return nil, err
	}
	r := &steppedRun{sim: s, setupS: time.Since(t0).Seconds(), stepS: make([]float64, 0, steps)}
	cpu0, steal0, w0 := selfCPU(), stealSeconds(), time.Now()
	var last *core.Result
	for i := 0; i < steps; i++ {
		ts := time.Now()
		res, err := s.Run(1)
		if err != nil {
			return nil, err
		}
		r.stepS = append(r.stepS, time.Since(ts).Seconds())
		r.flops += res.Counters.Flops + res.Counters.MPEFlops
		r.cells += res.Counters.CellsComputed
		r.dmaBytes += res.Counters.DMABytes
		r.wireBytes += res.BytesOnWire
		last = res
	}
	r.wallS, r.cpuS, r.stealS = time.Since(w0).Seconds(), selfCPU()-cpu0, stealSeconds()-steal0
	r.endTime = last.StepEnds[len(last.StepEnds)-1]
	for _, st := range last.RankStats {
		r.tasks += st.TasksRun
	}
	return r, nil
}

// engineEvents sums the executed-event counters of every distinct engine
// the simulation's core groups run on (one when serial, one per shard).
func engineEvents(s *core.Simulation) float64 {
	seen := map[*sim.Engine]bool{}
	var n uint64
	m := s.Machine
	for i := 0; i < m.NumCGs(); i++ {
		if e := m.CG(i).Engine(); !seen[e] {
			seen[e] = true
			n += e.EventsExecuted()
		}
	}
	return float64(n)
}

// compileAll times taskgraph.Compile for every rank of the simulation's
// layout and assignment: the set-up share NewSimulation spends on task
// graphs.
func compileAll(s *core.Simulation) (float64, error) {
	assign := s.Assignment()
	t0 := time.Now()
	for rank := 0; rank < s.Cfg.NumCGs; rank++ {
		if _, err := taskgraph.Compile(s.Level, s.Prob.Tasks, assign, rank); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds(), nil
}

// unit turns a stepped run into a unit result: each step is one item
// whose latency runs from the Run(1) call to its return.
func (r *steppedRun) unit(ranks int, cells int64, traced bool) (unitResult, error) {
	steps := float64(len(r.stepS))
	u := unitResult{
		wallS:       r.wallS,
		cpuS:        r.cpuS,
		stealS:      r.stealS,
		rankSteps:   float64(ranks) * steps,
		cellSteps:   float64(cells) * steps,
		setupS:      r.setupS,
		kernelCells: float64(r.cells),
		flops:       float64(r.flops),
		dmaBytes:    float64(r.dmaBytes),
		wireBytes:   float64(r.wireBytes),
		tasks:       float64(r.tasks),
		stepS:       r.stepS,
	}
	for _, s := range r.stepS {
		u.doneMS = append(u.doneMS, s*1e3)
	}
	if traced {
		u.events = engineEvents(r.sim)
		var err error
		if u.compileS, err = compileAll(r.sim); err != nil {
			return u, err
		}
	}
	return u, nil
}

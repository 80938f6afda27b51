package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"sunuintah/internal/core"
	"sunuintah/internal/experiments"
	"sunuintah/internal/runner"
	"sunuintah/internal/sw26010"
)

// The sweep workload: the strong-scaling cells behind the paper's Figures
// 9 and 10 for two Table III problems, every CG count from each
// problem's minimum to 128, through a fresh runner pool and in-memory
// cache, rendered and compared with the stored text. The paper's matrix
// fixes its input, so the seed selects nothing.
const (
	sweepVariant = "acc_simd.async"
	sweepRefFile = "sweep.txt"
)

// sweepProblems are the two smallest Table III problems. Larger ones
// exercise no other path; they would only lengthen a sweep, and a run
// needs many sweeps for a steady median.
var sweepProblems = experiments.Problems[:2]

// sweepCase is one feasible case of a rendered sweep.
type sweepCase struct {
	cells int // grid cells of its problem
	res   *core.Result
}

// renderSweep runs the sweep on s and renders Figures 9 and 10 for
// sweepProblems. It also returns every feasible case.
func renderSweep(s *experiments.Sweep) (string, []sweepCase, error) {
	v, err := experiments.VariantByName(sweepVariant)
	if err != nil {
		return "", nil, err
	}
	for _, prob := range sweepProblems {
		s.PrefetchSeries(prob, v)
	}
	var series []experiments.FlopsSeries
	var cases []sweepCase
	for _, prob := range sweepProblems {
		byCG, err := s.ScalingSeries(prob, v)
		if err != nil {
			return "", nil, err
		}
		fs := experiments.FlopsSeries{Problem: prob.Name}
		cgs := make([]int, 0, len(byCG))
		for c := range byCG {
			cgs = append(cgs, c)
		}
		sort.Ints(cgs)
		for _, c := range cgs {
			r := byCG[c].Result
			fs.Points = append(fs.Points, experiments.FlopsPoint{CGs: c, Gflops: r.Gflops, Efficiency: r.Efficiency})
			cases = append(cases, sweepCase{prob.GridSize.X * prob.GridSize.Y * prob.GridSize.Z, r})
		}
		series = append(series, fs)
	}
	return experiments.FormatFigure9(series) + experiments.FormatFigure10(series), cases, nil
}

// renderSweepSerial renders the sweep on a one-worker pool: the reference
// path.
func renderSweepSerial() (string, error) {
	pool := experiments.NewPool(1, runner.NewMemoryCache(0), nil)
	defer pool.Close()
	text, _, err := renderSweep(experiments.NewSweepWithPool(experiments.Options{}, pool))
	return text, err
}

// sweepSpecs lists every case of the sweep.
func sweepSpecs() ([]runner.Spec, error) {
	v, err := experiments.VariantByName(sweepVariant)
	if err != nil {
		return nil, err
	}
	var specs []runner.Spec
	for _, prob := range sweepProblems {
		for _, cgs := range experiments.CGCounts {
			if cgs >= prob.MinCGs {
				specs = append(specs, experiments.SpecFor(prob, cgs, v, experiments.Options{}, 0))
			}
		}
	}
	return specs, nil
}

// sweepSetup sums core.NewSimulation over every case of the sweep, with
// the round's hypervisor steal taken out (see unstealFactor).
func sweepSetup(specs []runner.Spec) (float64, error) {
	total := 0.0
	steal0, t0 := stealSeconds(), time.Now()
	for _, spec := range specs {
		cfg, prob, err := experiments.SpecConfig(spec)
		if err != nil {
			return 0, err
		}
		ts := time.Now()
		if _, err := core.NewSimulation(cfg, prob); err != nil {
			return 0, err
		}
		total += time.Since(ts).Seconds()
	}
	return total * unstealFactor(time.Since(t0).Seconds(), stealSeconds()-steal0), nil
}

// sweepSetupRounds is how many times a run sets the whole sweep up; the
// median is setup_s.
const sweepSetupRounds = 7

func runSweep(cfg config, o *outcome) error {
	want, err := os.ReadFile(filepath.Join(cfg.refs, sweepRefFile))
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	specs, err := sweepSpecs()
	if err != nil {
		return err
	}
	var setups []float64
	if !cfg.trace {
		for i := 0; i < sweepSetupRounds; i++ {
			s, err := sweepSetup(specs)
			if err != nil {
				return fmt.Errorf("sweep set-up: %w", err)
			}
			setups = append(setups, s)
		}
	}
	st, err := runUnits(cfg, 4, 1, 0, func(i int, traced bool) (unitResult, error) {
		u, text, failed, err := sweepUnit(cfg, traced)
		o.attempted += len(specs)
		o.failed += failed
		if err != nil {
			return u, err
		}
		if text != string(want) {
			o.mismatch("sweep unit %d: rendered figures differ from %s", i, sweepRefFile)
		}
		return u, nil
	})
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	if cfg.trace {
		return st.setLayers(o)
	}
	return st.setE2E(o, median(setups))
}

// poolClock records when each pool event happened, keyed by spec hash
// for the traced spans.
type poolClock struct {
	mu      sync.Mutex
	traced  bool
	done    []time.Time
	queued  map[string]time.Time
	started map[string]time.Time
	waits   []float64
	execs   []float64
}

func (c *poolClock) onEvent(ev runner.Event) {
	now := time.Now()
	var h string
	if c.traced {
		h = ev.Spec.Hash()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch ev.Type {
	case runner.EventQueued:
		if c.traced {
			c.queued[h] = now
		}
	case runner.EventStarted:
		if c.traced {
			c.started[h] = now
			c.waits = append(c.waits, now.Sub(c.queued[h]).Seconds())
		}
	case runner.EventDone, runner.EventFailed:
		c.done = append(c.done, now)
		if c.traced {
			c.execs = append(c.execs, now.Sub(c.started[h]).Seconds())
		}
	}
}

// sweepUnit runs one whole sweep on a fresh pool of cfg.workers workers.
// Each case is one item, due when the sweep starts. A traced unit runs
// the cases through execTracer, which times set-up and counts engine
// events, and then renders a second time from the warm pool.
func sweepUnit(cfg config, traced bool) (unitResult, string, int, error) {
	clock := &poolClock{traced: traced, queued: map[string]time.Time{}, started: map[string]time.Time{}}
	cache := runner.NewMemoryCache(0)
	tr := &execTracer{}
	var pool *experiments.Pool
	if traced {
		p, err := runner.New(runner.Config{Workers: cfg.workers, Exec: tr.exec, Cache: cache, Retries: 2, OnEvent: clock.onEvent})
		if err != nil {
			return unitResult{}, "", 0, err
		}
		pool = p
	} else {
		pool = experiments.NewPool(cfg.workers, cache, clock.onEvent)
	}
	defer pool.Close()

	cpu0, steal0, t0 := selfCPU(), stealSeconds(), time.Now()
	text, cases, err := renderSweep(experiments.NewSweepWithPool(experiments.Options{}, pool))
	u := unitResult{wallS: time.Since(t0).Seconds(), cpuS: selfCPU() - cpu0, stealS: stealSeconds() - steal0}
	m := pool.Metrics()
	if err != nil {
		return u, "", int(m.Failed), err
	}
	u.hitFrac = m.HitRate()
	clock.mu.Lock()
	for _, d := range clock.done {
		u.doneMS = append(u.doneMS, d.Sub(t0).Seconds()*1e3)
	}
	u.queueWaitS, u.execS = clock.waits, clock.execs
	clock.mu.Unlock()
	for _, c := range cases {
		r := c.res
		u.rankSteps += float64(len(r.RankStats) * r.Steps)
		u.cellSteps += float64(c.cells * r.Steps)
		for _, st := range r.RankStats {
			u.tasks += float64(st.TasksRun)
		}
		u.kernelCells += float64(r.Counters.CellsComputed)
		u.flops += float64(r.Counters.Flops + r.Counters.MPEFlops)
		u.dmaBytes += float64(r.Counters.DMABytes)
		u.wireBytes += float64(r.BytesOnWire)
	}
	if traced {
		u.events, u.setupS, u.compileS = tr.totals()
		t1 := time.Now()
		again, _, err := renderSweep(experiments.NewSweepWithPool(experiments.Options{}, pool))
		if err != nil {
			return u, "", int(m.Failed), err
		}
		u.renderS = time.Since(t1).Seconds()
		if again != text {
			return u, "", int(m.Failed), errors.New("warm re-render differs from the first render")
		}
	}
	return u, text, int(m.Failed), nil
}

// execTracer is the traced sweep's runner.ExecFunc: experiments.Exec's
// fault-free path (SpecConfig, NewSimulation, Run) with set-up timed and
// engine events counted around the public calls. It also times
// taskgraph.Compile for every rank of each case, the graph share of its
// set-up.
type execTracer struct {
	mu                      sync.Mutex
	events, newsim, compile float64
}

func (t *execTracer) exec(ctx context.Context, spec runner.Spec) (*runner.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg, prob, err := experiments.SpecConfig(spec)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	s, err := core.NewSimulation(cfg, prob)
	newsim := time.Since(t0).Seconds()
	var compile float64
	var res *core.Result
	if err == nil {
		if compile, err = compileAll(s); err == nil {
			res, err = s.Run(spec.Steps)
		}
	}
	if err != nil {
		var oom *sw26010.ErrOutOfMemory
		if errors.As(err, &oom) {
			return &runner.Result{Feasible: false}, nil
		}
		return nil, fmt.Errorf("spec %s: %w", spec, err)
	}
	ev := engineEvents(s)
	t.mu.Lock()
	t.events += ev
	t.newsim += newsim
	t.compile += compile
	t.mu.Unlock()
	return &runner.Result{Feasible: true, Sim: res}, nil
}

func (t *execTracer) totals() (events, newsim, compile float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events, t.newsim, t.compile
}

package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sunuintah/internal/experiments"
	"sunuintah/internal/runner"
)

// The serve workload: a sunserver subprocess (memory cache, journal in
// the work directory) driven open-loop over at most cfg.workers
// connections. A paced phase submits tiny functional jobs at a fixed rate
// well under capacity, every third one a repeat of an earlier spec (a
// cache hit, or coalesced while the original runs); bursts then submit a
// batch of fresh jobs at once and time the drain.
//
// Jobs cycle through serveClasses in seeded order. A fresh job differs
// from every earlier one in its jitter seed, which enters the content
// hash but, with noise off, not the result: every run serves the same
// mix of work, the seed decides only order and which specs repeat, and
// each class has one reference for every seed.
const (
	servePacedRate  = 100.0 // jobs per second
	servePacedShare = 0.6   // share of the run spent in the paced phase
	serveBursts     = 5
	serveBurstJobs  = 1000
	serveStarts     = 15 // server starts per run; setup_s is their median
	serveRefFile    = "serve.json"
	serveDrainLimit = 90 * time.Second
)

// serveClasses are the tiny functional cases jobs draw from: three
// shapes, each under the three model problems and a seeded mixture. They
// are small enough that serving (HTTP, admission, journal, pool handoff)
// costs as much as simulating, the fine-grain end of the task sizes the
// workloads span.
var serveClasses = func() []runner.Spec {
	shapes := []runner.Spec{
		{Cells: "8x8x16", Layout: "1x1x2", CGs: 2, Variant: "acc_simd.async", Steps: 1, Functional: true},
		{Cells: "16x8x8", Layout: "2x1x1", CGs: 1, Variant: "acc.async", Steps: 1, Functional: true},
		{Cells: "8x8x8", Layout: "1x1x1", CGs: 1, Variant: "acc_simd.sync", Steps: 2, Functional: true},
	}
	var out []runner.Spec
	for _, s := range shapes {
		for _, p := range []string{"burgers", "advection", "heat3d", "mix:burgers=1,advection=1,heat3d=1,seed=3"} {
			s.Physics = p
			out = append(out, s)
		}
	}
	return out
}()

// classKey names a spec's class: the spec without its jitter seed.
func classKey(s runner.Spec) string {
	return fmt.Sprintf("%s layout=%s cgs=%d %s steps=%d %s", s.Cells, s.Layout, s.CGs, s.Variant, s.Steps, s.Physics)
}

// serveSchedule derives the run's arrivals from the seed: the paced phase
// at the fixed rate for servePacedShare of the run, and the bursts.
func serveSchedule(seed uint64, seconds float64) (paced []arrival, bursts [][]runner.Spec) {
	rng := rand.New(rand.NewPCG(seed, 0x5e12e))
	var order []int
	jitter := uint64(0)
	fresh := func() runner.Spec {
		if len(order) == 0 {
			order = rng.Perm(len(serveClasses))
		}
		s := serveClasses[order[0]]
		order = order[1:]
		jitter++
		s.Seed = seed<<24 | jitter
		return s
	}
	n := int(servePacedRate * seconds * servePacedShare)
	for i := 0; i < n; i++ {
		var spec runner.Spec
		if i%3 == 2 {
			spec = paced[rng.IntN(i)].spec
		} else {
			spec = fresh()
		}
		at := time.Duration(float64(i) / servePacedRate * float64(time.Second))
		paced = append(paced, arrival{at: at, spec: spec})
	}
	for b := 0; b < serveBursts; b++ {
		var batch []runner.Spec
		for j := 0; j < serveBurstJobs; j++ {
			batch = append(batch, fresh())
		}
		bursts = append(bursts, batch)
	}
	return paced, bursts
}

// serveReferences computes the reference virtual time per step of every
// class in process, through experiments.Exec rather than the server.
func serveReferences() (map[string]float64, error) {
	refs := map[string]float64{}
	for _, spec := range serveClasses {
		res, err := experiments.Exec(context.Background(), spec)
		if err != nil {
			return nil, err
		}
		refs[classKey(spec)] = res.PerStepSeconds()
	}
	return refs, nil
}

// server is one running sunserver.
type server struct {
	cmd    *exec.Cmd
	base   string
	log    *os.File
	maxRSS float64 // MiB, known once stopped
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches sunserver and returns once /healthz answers 200,
// with the time that took.
func startServer(cfg config, n int, retain int, pprof bool) (*server, float64, error) {
	dir := filepath.Join(cfg.work, fmt.Sprintf("serve-%d", n))
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(dir, "sunserver.log"))
	if err != nil {
		return nil, 0, err
	}
	args := []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-jobs", strconv.Itoa(cfg.workers),
		"-cache", "off",
		"-store", filepath.Join(dir, "journal"),
		"-retain", strconv.Itoa(retain),
		"-max-queued", strconv.Itoa(retain),
	}
	if pprof {
		args = append(args, "-pprof")
	}
	s := &server{cmd: exec.Command(cfg.server, args...), base: fmt.Sprintf("http://127.0.0.1:%d", port), log: logf}
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start sunserver: %w", err)
	}
	c := newClient(s.base, 1)
	defer c.close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for {
		if _, err := c.get(ctx, "/healthz"); err == nil {
			return s, time.Since(t0).Seconds(), nil
		}
		if ctx.Err() != nil {
			s.stop()
			return nil, 0, fmt.Errorf("sunserver did not become healthy: see %s", logf.Name())
		}
		time.Sleep(250 * time.Microsecond)
	}
}

// stop terminates the server gracefully, waits for it to exit and
// records its resident high-water mark.
func (s *server) stop() error {
	defer s.log.Close()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-done
		err = fmt.Errorf("sunserver ignored SIGTERM; killed")
	}
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.maxRSS = float64(ru.Maxrss) / 1024
	}
	return err
}

// promValue sums the samples of a metric family on /metrics whose label
// set contains every given label.
func promValue(text, family string, labels ...string) float64 {
	total := 0.0
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family) || strings.HasPrefix(line, "#") {
			continue
		}
		rest := line[len(family):]
		if rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue // a longer family sharing the prefix
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(rest, l)
		}
		if !ok {
			continue
		}
		fields := strings.Fields(rest[strings.LastIndexByte(rest, '}')+1:])
		if len(fields) == 0 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[0], 64); err == nil {
			total += v
		}
	}
	return total
}

// servedJob pairs a submission with the server's record of it.
type servedJob struct {
	sub submission
	job jobView
	err error
	// unsteal is its phase's unstealFactor: steal accrues on the CPUs
	// whether the server is busy or not, so a job loses the phase's steal
	// rate per CPU of its latency.
	unsteal float64
}

func serveRetain(paced []arrival, bursts [][]runner.Spec) int {
	n := len(paced)
	for _, b := range bursts {
		n += len(b)
	}
	// Above the job count, so no finished job is evicted before it is read.
	return 2*n + 64
}

func runServe(cfg config, o *outcome) error {
	paced, bursts := serveSchedule(cfg.seed, cfg.seconds)
	retain := serveRetain(paced, bursts)
	var setups []float64
	var srv *server
	steal0, t0 := stealSeconds(), time.Now()
	for i := 0; i < serveStarts; i++ {
		s, setup, err := startServer(cfg, i, retain, cfg.trace)
		if err != nil {
			return err
		}
		setups = append(setups, setup)
		if i < serveStarts-1 {
			if err := s.stop(); err != nil {
				return fmt.Errorf("stop sunserver: %w", err)
			}
		} else {
			srv = s
		}
	}
	// One start is a few milliseconds, below /proc/stat's resolution, so
	// the steal comes out at the rate observed over all of them.
	setupS := median(setups) * unstealFactor(time.Since(t0).Seconds(), stealSeconds()-steal0)
	res, err := driveServer(cfg, srv, paced, bursts)
	if stopErr := srv.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("stop sunserver: %w", stopErr)
	}
	if err != nil {
		return err
	}
	refs := map[string]float64{}
	if err := loadJSON(cfg.refs, serveRefFile, &refs); err != nil {
		return err
	}
	res.check(o, refs)
	if cfg.trace {
		return res.setLayers(o)
	}
	return res.setE2E(o, setupS, srv.maxRSS)
}

// serveRun is everything one drive of the server measured.
type serveRun struct {
	phases     [][]servedJob // paced phases: one, or untraced then traced
	phaseCPU   []float64     // server CPU seconds per paced phase
	bursts     [][]servedJob
	burstWalls []float64
	serverCPU  float64 // over every phase, excluding the reads between them
	metrics    string  // /metrics after the run
	journal    float64 // /healthz journalEntries after the run
	prof       *profAgg
}

// driveServer runs the paced phase (split into an untraced and a profiled
// half when tracing) and the bursts, draining the server between phases.
func driveServer(cfg config, srv *server, paced []arrival, bursts [][]runner.Spec) (*serveRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), serveDrainLimit)
	defer cancel()
	c := newClient(srv.base, cfg.workers)
	defer c.close()
	pid := srv.cmd.Process.Pid
	run := &serveRun{prof: newProfAgg()}

	halves := [][]arrival{paced}
	if cfg.trace {
		halves = [][]arrival{paced[:len(paced)/2], paced[len(paced)/2:]}
	}
	for h, phase := range halves {
		base := phase[0].at
		shifted := make([]arrival, len(phase))
		for i, a := range phase {
			shifted[i] = arrival{at: a.at - base, spec: a.spec}
		}
		cpu0, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		steal0, phase0 := stealSeconds(), time.Now()
		var profDone chan error
		if h == 1 {
			secs := int(shifted[len(shifted)-1].at.Seconds() + 1)
			profDone = make(chan error, 1)
			go func() { profDone <- fetchProfile(ctx, srv.base, secs, run.prof) }()
		}
		subs := c.openLoop(ctx, time.Now(), shifted, cfg.workers)
		if err := c.waitIdle(ctx); err != nil {
			return nil, err
		}
		if profDone != nil {
			if err := <-profDone; err != nil {
				return nil, err
			}
		}
		cpu1, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		f := unstealFactor(time.Since(phase0).Seconds(), stealSeconds()-steal0)
		run.phaseCPU = append(run.phaseCPU, cpu1-cpu0)
		run.serverCPU += cpu1 - cpu0
		jobs, errs := c.collect(ctx, subs)
		run.phases = append(run.phases, pair(jobs, errs, subs, f))
	}
	for _, batch := range bursts {
		arrivals := make([]arrival, len(batch))
		for i, spec := range batch {
			arrivals[i] = arrival{spec: spec}
		}
		cpu0, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		steal0, t0 := stealSeconds(), time.Now()
		subs := c.openLoop(ctx, t0, arrivals, cfg.workers)
		if err := c.waitIdle(ctx); err != nil {
			return nil, err
		}
		steal := stealSeconds() - steal0
		cpu1, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		run.serverCPU += cpu1 - cpu0
		views, errs := c.collect(ctx, subs)
		jobs := pair(views, errs, subs, 1)
		last := t0
		for _, j := range jobs {
			if j.job.Finished != nil && j.job.Finished.After(last) {
				last = *j.job.Finished
			}
		}
		run.bursts = append(run.bursts, jobs)
		wall := last.Sub(t0).Seconds()
		run.burstWalls = append(run.burstWalls, wall*unstealFactor(wall, steal))
	}
	b, err := c.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	run.metrics = string(b)
	var h struct {
		JournalEntries float64 `json:"journalEntries"`
	}
	if err := c.getJSON(ctx, "/healthz", &h); err != nil {
		return nil, err
	}
	run.journal = h.JournalEntries
	return run, nil
}

func pair(jobs []jobView, errs []error, subs []submission, unsteal float64) []servedJob {
	out := make([]servedJob, len(subs))
	for i := range subs {
		out[i] = servedJob{sub: subs[i], job: jobs[i], err: errs[i], unsteal: unsteal}
	}
	return out
}

// fetchProfile takes a CPU profile of the server through its pprof
// handler and folds it into agg.
func fetchProfile(ctx context.Context, base string, secs int, agg *profAgg) error {
	c := newClient(base, 1)
	defer c.close()
	b, err := c.get(ctx, fmt.Sprintf("/debug/pprof/profile?seconds=%d", secs))
	if err != nil {
		return fmt.Errorf("server profile: %w", err)
	}
	return agg.add(b)
}

func (r *serveRun) all() []servedJob {
	var out []servedJob
	for _, p := range r.phases {
		out = append(out, p...)
	}
	for _, b := range r.bursts {
		out = append(out, b...)
	}
	return out
}

// check counts every submission and verifies every accepted job ended
// done with its class's reference virtual time per step.
func (r *serveRun) check(o *outcome, refs map[string]float64) {
	for _, j := range r.all() {
		o.attempted++
		switch {
		case j.sub.err != nil:
			o.failed++
			o.mismatch("submission: %v", j.sub.err)
		case !j.sub.accepted():
			o.failed++ // refused: it misses every latency limit
		case j.err != nil:
			o.failed++
			o.mismatch("%v", j.err)
		case j.job.State != "done" || j.job.Result == nil:
			o.failed++
			o.mismatch("job %s ended %s: %s", j.job.ID, j.job.State, j.job.Error)
		default:
			want, ok := refs[classKey(j.sub.spec)]
			if got := j.job.Result.PerStepSeconds(); !ok || got != want {
				o.mismatch("job %s (%s): per-step virtual time %v, want %v", j.job.ID, classKey(j.sub.spec), got, want)
			}
		}
	}
}

func specCells(spec runner.Spec) float64 {
	v, err := experiments.ParseIVec(spec.Cells)
	if err != nil {
		return 0
	}
	return float64(v.X * v.Y * v.Z)
}

func doneMS(jobs []servedJob) []float64 {
	var out []float64
	for _, j := range jobs {
		if j.job.Finished != nil && j.job.State == "done" {
			out = append(out, j.job.Finished.Sub(j.sub.due).Seconds()*1e3*j.unsteal)
		}
	}
	return out
}

func (r *serveRun) paced() []servedJob {
	var out []servedJob
	for _, p := range r.phases {
		out = append(out, p...)
	}
	return out
}

func (r *serveRun) setE2E(o *outcome, setupS, rssMiB float64) error {
	var rankSteps, cellSteps float64
	for _, j := range r.all() {
		if j.job.State == "done" {
			rankSteps += float64(j.sub.spec.CGs * j.sub.spec.Steps)
			cellSteps += specCells(j.sub.spec) * float64(j.sub.spec.Steps)
		}
	}
	if r.serverCPU <= 0 {
		return fmt.Errorf("serve: no server CPU time measured")
	}
	if err := o.setDone(doneMS(r.paced())); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	o.values["setup_s"] = setupS
	o.values["wall_s"] = median(r.burstWalls)
	o.values["rank_steps_per_cpu_s"] = rankSteps / r.serverCPU
	o.values["cell_steps_per_cpu_s"] = cellSteps / r.serverCPU
	o.values["peak_rss_mib"] = rssMiB
	return nil
}

func (r *serveRun) setLayers(o *outcome) error {
	setLayerDefaults(o)
	a := r.prof
	for _, l := range profLayers {
		o.values[l+".cpu_frac"] = a.frac(a.layer[l])
	}
	o.values["kernel.exact_bc.cpu_frac"] = a.frac(a.exactBC)
	o.values["runtime.sched.cpu_frac"] = a.frac(a.sched)
	o.values["runtime.gc.cpu_frac"] = a.frac(a.gc)

	paced := r.paced()
	var submit, late []float64
	for _, j := range paced {
		if j.sub.accepted() {
			submit = append(submit, j.sub.answered.Sub(j.sub.sent).Seconds()*1e3*j.unsteal)
		}
		late = append(late, j.sub.sent.Sub(j.sub.due).Seconds()*1e3*j.unsteal)
	}
	var err error
	pct := func(name string, xs []float64, q float64) {
		if err != nil {
			return
		}
		var v float64
		if v, err = percentile(xs, q); err != nil {
			err = fmt.Errorf("%s: %w", name, err)
		}
		o.values[name] = v
	}
	pct("http.submit_p50_ms", submit, 0.5)
	pct("http.submit_p90_ms", submit, 0.9)
	pct("loadgen.late_p90_ms", late, 0.9)
	if err != nil {
		return err
	}

	executed := promValue(r.metrics, "sunserver_pool_jobs_total", `state="executed"`)
	execMS := 0.0
	if executed > 0 {
		execMS = promValue(r.metrics, "sunserver_pool_seconds_total", `kind="exec"`) / executed * 1e3
	}
	o.values["server.exec_ms"] = execMS
	// Queueing inside the server: residence minus execution, over the
	// paced jobs that executed (a repeat's execSeconds is its original's).
	// The runner's own spans are the job's execSeconds and the rest of its
	// residence.
	var queued, execs []float64
	seen := map[string]bool{}
	for _, j := range paced {
		h := j.sub.spec.Hash()
		if j.job.Finished != nil && j.job.Result != nil && !seen[h] {
			exec := j.job.Result.ExecSeconds
			queued = append(queued, (j.job.Finished.Sub(j.job.Submitted).Seconds()-exec)*j.unsteal)
			execs = append(execs, exec*j.unsteal)
		}
		seen[h] = true
	}
	queueS, err := percentile(queued, 0.5)
	if err != nil {
		return fmt.Errorf("server queueing: %w", err)
	}
	o.values["server.queue_p50_ms"] = queueS * 1e3
	o.values["runner.queue_wait_s"] = queueS
	o.values["runner.exec_s"] = median(execs)

	accepted, rejected := 0.0, 0.0
	var jobs, cells, flops, dma, wire, tasks float64
	for _, j := range r.all() {
		if j.sub.accepted() {
			accepted++
		} else if j.sub.status == http.StatusTooManyRequests {
			rejected++
		}
		if j.job.Result == nil || j.job.Result.Sim == nil {
			continue
		}
		s := j.job.Result.Sim
		jobs++
		cells += float64(s.Counters.CellsComputed)
		flops += float64(s.Counters.Flops + s.Counters.MPEFlops)
		dma += float64(s.Counters.DMABytes)
		wire += float64(s.BytesOnWire)
		for _, st := range s.RankStats {
			tasks += float64(st.TasksRun)
		}
	}
	if accepted == 0 || jobs == 0 {
		return fmt.Errorf("serve: no job accepted")
	}
	o.values["kernel.cells"] = cells / jobs
	o.values["kernel.flops"] = flops / jobs
	o.values["athread.dma_bytes"] = dma / jobs
	o.values["mpisim.bytes_on_wire"] = wire / jobs
	o.values["scheduler.tasks"] = tasks / jobs
	o.values["server.cpu_ms_per_job"] = r.serverCPU * 1e3 / accepted
	o.values["server.drain_jobs_per_s"] = serveBurstJobs / median(r.burstWalls)
	o.values["admission.rejected"] = rejected
	o.values["jobstore.journal_entries_per_job"] = r.journal / accepted
	if sub := promValue(r.metrics, "sunserver_pool_jobs_total", `state="submitted"`); sub > 0 {
		o.values["runner.hit_frac"] = promValue(r.metrics, "sunserver_pool_jobs_total", `state="cache_hits"`) / sub
	}

	// Overhead: the profiled half of the paced phase against the plain one.
	if len(r.phases) == 2 {
		var p50 [2]float64
		for h := range p50 {
			if p50[h], err = percentile(doneMS(r.phases[h]), 0.5); err != nil {
				return fmt.Errorf("serve overhead: %w", err)
			}
		}
		o.values["trace.overhead_wall_frac"] = p50[1]/p50[0] - 1
		perJob := func(h int) float64 { return r.phaseCPU[h] / float64(len(r.phases[h])) }
		if perJob(0) > 0 {
			o.values["trace.overhead_cpu_frac"] = perJob(1)/perJob(0) - 1
		}
	}
	return nil
}

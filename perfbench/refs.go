package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"

	"sunuintah/internal/core"
	"sunuintah/internal/grid"
	"sunuintah/internal/taskgraph"
)

// simRef is the reference outcome of one simulation case. Every number
// is exact: runs are deterministic and bit-identical across engines and
// shard counts, so any difference is a defect.
type simRef struct {
	Steps     int               `json:"steps"`
	EndTime   float64           `json:"end_time_s"`
	PerStep   float64           `json:"per_step_s"`
	Flops     int64             `json:"flops"`
	Cells     int64             `json:"cells"`
	DMABytes  int64             `json:"dma_bytes"`
	WireBytes int64             `json:"bytes_on_wire"`
	Tasks     int64             `json:"tasks"`
	Fields    map[string]string `json:"fields,omitempty"` // label -> checksum of the gathered field
}

func (r *steppedRun) ref() simRef {
	steps := len(r.stepS)
	return simRef{
		Steps:     steps,
		EndTime:   float64(r.endTime),
		PerStep:   float64(r.endTime) / float64(steps),
		Flops:     r.flops,
		Cells:     r.cells,
		DMABytes:  r.dmaBytes,
		WireBytes: r.wireBytes,
		Tasks:     r.tasks,
	}
}

// steppedReference builds and steps a case the way the workloads do and
// returns its reference, with field checksums when fields is set. Each
// Run call ends at a global barrier, so a reference must be segmented
// like the run it checks.
func steppedReference(cfg core.Config, prob core.Problem, steps int, fields bool) (simRef, error) {
	r, err := runStepped(cfg, prob, steps)
	if err != nil {
		return simRef{}, err
	}
	ref := r.ref()
	if fields {
		if ref.Fields, err = fieldChecksums(r.sim); err != nil {
			return simRef{}, err
		}
	}
	return ref, nil
}

// diff lists every field in which got differs from want.
func (want simRef) diff(got simRef) []string {
	var out []string
	check := func(name string, w, g any) {
		if w != g {
			out = append(out, fmt.Sprintf("%s: got %v, want %v", name, g, w))
		}
	}
	check("steps", want.Steps, got.Steps)
	check("end_time_s", want.EndTime, got.EndTime)
	check("per_step_s", want.PerStep, got.PerStep)
	check("flops", want.Flops, got.Flops)
	check("cells", want.Cells, got.Cells)
	check("dma_bytes", want.DMABytes, got.DMABytes)
	check("bytes_on_wire", want.WireBytes, got.WireBytes)
	check("tasks", want.Tasks, got.Tasks)
	names := map[string]bool{}
	for n := range want.Fields {
		names[n] = true
	}
	for n := range got.Fields {
		names[n] = true
	}
	for _, n := range sortedKeys(names) {
		check("field "+n, want.Fields[n], got.Fields[n])
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// fieldChecksums gathers every field the problem initialises and hashes
// its domain values bit for bit. A non-finite value is an error: the
// model problems are stable at the chosen timestep.
func fieldChecksums(s *core.Simulation) (map[string]string, error) {
	var labels []*taskgraph.Label
	for l := range s.Prob.Initial {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].Name() < labels[j].Name() })
	out := map[string]string{}
	for _, l := range labels {
		f, err := s.GatherField(l)
		if err != nil {
			return nil, err
		}
		h := fnv.New64a()
		var buf [8]byte
		var bad error
		s.Level.Layout.Domain.ForEach(func(c grid.IVec) {
			v := f.At(c)
			if bad == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
				bad = fmt.Errorf("field %s: non-finite value %v at %v", l.Name(), v, c)
			}
			bits := math.Float64bits(v)
			for i := range buf {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:])
		})
		if bad != nil {
			return nil, bad
		}
		out[l.Name()] = fmt.Sprintf("%016x", h.Sum64())
	}
	return out, nil
}

func loadJSON(dir, name string, v any) error {
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("reference %s: %w", name, err)
	}
	return nil
}

func saveJSON(dir, name string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// writeReferences recomputes every stored reference: on the serial
// engine (bigcase runs sharded), through a one-worker pool for the sweep,
// and in process rather than through sunserver for served specs.
func writeReferences(cfg config) error {
	if err := os.MkdirAll(cfg.refs, 0o755); err != nil {
		return err
	}
	text, err := renderSweepSerial()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.refs, sweepRefFile), []byte(text), 0o644); err != nil {
		return err
	}
	big, err := bigcaseReference()
	if err != nil {
		return err
	}
	if err := saveJSON(cfg.refs, bigcaseRefFile, big); err != nil {
		return err
	}
	fun := map[string]simRef{}
	for _, seed := range []uint64{defaultSeed, heldOutSeed} {
		for sub := 0; sub < functionalCycle; sub++ {
			ref, err := functionalReference(seed, sub, 0)
			if err != nil {
				return err
			}
			fun[functionalKey(seed, sub)] = ref
		}
	}
	if err := saveJSON(cfg.refs, functionalRefFile, fun); err != nil {
		return err
	}
	serve, err := serveReferences()
	if err != nil {
		return err
	}
	return saveJSON(cfg.refs, serveRefFile, serve)
}

package main

import (
	"fmt"
	"time"

	"sunuintah/internal/core"
	"sunuintah/internal/field"
	"sunuintah/internal/grid"
	"sunuintah/internal/taskgraph"
)

// packRounds repeats the halo sweep so one measurement spans tens of
// milliseconds rather than a timer tick.
const packRounds = 20

// packThroughput times Cell.Pack and Cell.Unpack over every inter-patch
// ghost region of the simulation's layout (width 1, the stencils' halo):
// the payloads its ghost exchange serialises. It returns bytes packed plus
// bytes unpacked per second.
func packThroughput(s *core.Simulation) (float64, error) {
	var label *taskgraph.Label
	for l := range s.Prob.Initial {
		if label == nil || l.Name() < label.Name() {
			label = l
		}
	}
	if label == nil {
		return 0, fmt.Errorf("pack: problem has no fields")
	}
	src, err := s.GatherField(label)
	if err != nil {
		return 0, err
	}
	var regions []grid.Box
	for _, p := range s.Level.Layout.Patches() {
		for _, g := range s.Level.Layout.GhostRegions(p, 1) {
			if g.Src != nil {
				// The payload is read from the source patch's interior.
				regions = append(regions, g.Region)
			}
		}
	}
	dst := field.NewCell(src.Alloc())
	var buf []float64
	moved := 0
	t0 := time.Now()
	for round := 0; round < packRounds; round++ {
		for _, r := range regions {
			buf = src.Pack(r, buf[:0])
			dst.Unpack(r, buf)
			moved += 2 * 8 * len(buf)
		}
	}
	elapsed := time.Since(t0).Seconds()
	if elapsed <= 0 || moved == 0 {
		return 0, fmt.Errorf("pack: nothing measured")
	}
	return float64(moved) / elapsed, nil
}

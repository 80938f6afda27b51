package main

import (
	"errors"
	"io/fs"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestCorruptedReferenceFailsRun runs one cycle of the functional
// workload against references in which one mixture's virtual time per
// step is one ulp off: exactly that mixture's unit must be reported, and
// the others must pass.
func TestCorruptedReferenceFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four functional simulations")
	}
	var refs map[string]simRef
	if err := loadJSON("refs", functionalRefFile, &refs); err != nil {
		t.Fatal(err)
	}
	bad := functionalKey(defaultSeed, 2)
	r, ok := refs[bad]
	if !ok {
		t.Fatalf("no stored reference %s", bad)
	}
	r.PerStep = math.Nextafter(r.PerStep, 1)
	refs[bad] = r
	dir := t.TempDir()
	if err := saveJSON(dir, functionalRefFile, refs); err != nil {
		t.Fatal(err)
	}

	cfg := config{workload: "functional", seed: defaultSeed, seconds: 1e-3, refs: dir, workers: runtime.GOMAXPROCS(0)}
	o := newOutcome()
	if err := runFunctional(cfg, o); err != nil {
		t.Fatal(err)
	}
	if len(o.mismatches) != 1 || !strings.Contains(o.mismatches[0], bad) || !strings.Contains(o.mismatches[0], "per_step_s") {
		t.Fatalf("mismatches = %q, want exactly one for %s per_step_s", o.mismatches, bad)
	}
	if o.attempted != functionalCycle*functionalSteps || o.failed != 0 {
		t.Errorf("attempted %d failed %d", o.attempted, o.failed)
	}
}

func TestMissingReferenceIsAnError(t *testing.T) {
	cfg := config{workload: "sweep", refs: filepath.Join(t.TempDir(), "absent"), seconds: 1e-3, workers: 1}
	if err := runSweep(cfg, newOutcome()); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("runSweep without references: %v", err)
	}
}

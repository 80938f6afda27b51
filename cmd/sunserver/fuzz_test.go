package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"sunuintah/internal/experiments"
	"sunuintah/internal/runner"
)

// FuzzRunRequest drives arbitrary bytes through the POST /run decode path
// and spec validation. Properties: nothing panics, and every body either
// errors or yields a valid spec whose content hash is stable — repeatable,
// unchanged by a JSON round trip (field order and omitted zero values),
// and blind to the wall-clock and reporting knobs the hash excludes.
// The seed corpus lives in testdata/fuzz/FuzzRunRequest.
func FuzzRunRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRunRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		spec := req.Spec
		if err := experiments.ValidateSpec(spec); err != nil {
			return
		}
		h := spec.Hash()
		if again := spec.Hash(); again != h {
			t.Fatalf("hash not repeatable: %s then %s", h, again)
		}
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("valid spec does not re-encode: %v", err)
		}
		var back runner.Spec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("re-encoded spec %s does not decode: %v", data, err)
		}
		if got := back.Hash(); got != h {
			t.Fatalf("hash changed across a JSON round trip: %s -> %s (%s)", h, got, data)
		}
		knobs := spec
		knobs.Shards += 3
		knobs.Report = !knobs.Report
		knobs.Trace = !knobs.Trace
		if got := knobs.Hash(); got != h {
			t.Fatalf("engine/reporting knobs changed the hash: %s -> %s", h, got)
		}
	})
}

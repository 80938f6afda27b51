package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sunuintah/internal/experiments"
	"sunuintah/internal/jobstore"
	"sunuintah/internal/runner"
)

// removedFieldSpec is a POST /run body from a client of the release that
// still had the Time-Warp shard coordinator: every field is valid today
// except "optimistic".
const removedFieldSpec = `{"cells":"8x8x8","cgs":1,"variant":"acc.async","steps":1,"shards":2,"optimistic":true}`

// TestRunRejectsRemovedEngineField locks the caller-visible cost of the
// engine removal: a body that still sends "optimistic" is a 400 whose
// error names the field, not a silently ignored knob.
func TestRunRejectsRemovedEngineField(t *testing.T) {
	ts, _, _ := newRobustServer(t, instantExec, 1, serverConfig{steps: 1})
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(removedFieldSpec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (body %s)", resp.StatusCode, body)
	}
	var out struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("error body is not JSON: %s", body)
	}
	if !strings.Contains(out.Error, `"optimistic"`) {
		t.Fatalf("error %q does not name the rejected field", out.Error)
	}
}

// TestRestartReplaysRemovedEngineField checks that a job journal written
// by the earlier release, whose specs carry "optimistic", still replays:
// replay decodes records leniently, so the done job is relisted and the
// incomplete one is resubmitted and completes.
func TestRestartReplaysRemovedEngineField(t *testing.T) {
	dir := t.TempDir()
	journal := strings.Join([]string{
		`{"op":"accept","record":{"id":"j1","tenant":"t1","spec":{"cells":"8x8x8","cgs":1,"variant":"acc.async","steps":1,"seed":1,"shards":2,"optimistic":true},"state":"queued","submitted":"2026-01-01T00:00:00Z"}}`,
		`{"op":"state","id":"j1","state":"done","finished":"2026-01-01T00:00:01Z"}`,
		`{"op":"accept","record":{"id":"j2","tenant":"t1","spec":{"cells":"8x8x8","cgs":1,"variant":"acc.async","steps":1,"seed":2,"shards":2,"optimistic":true},"state":"queued","submitted":"2026-01-01T00:00:02Z"}}`,
		`{"op":"state","id":"j2","state":"running"}`,
	}, "\n") + "\n"
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := store.Len(); n != 2 {
		t.Fatalf("replayed %d records, want 2", n)
	}
	pool, err := runner.New(runner.Config{Workers: 1, Exec: instantExec, Cache: runner.NewMemoryCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv := newServer(ctx, pool, experiments.NewSweepWithPool(experiments.Options{Steps: 1}, pool),
		serverConfig{steps: 1, store: store})
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(func() {
		ts.Close()
		cancel()
		pool.Close()
		srv.Drain()
		store.Close()
	})

	var list []struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if code := getJSON(t, ts.URL+"/jobs", &list); code != http.StatusOK {
		t.Fatalf("GET /jobs = %d", code)
	}
	if len(list) != 2 || list[0].ID != "j1" || list[0].State != "done" || list[1].ID != "j2" {
		t.Fatalf("relisted jobs = %+v, want j1 done and j2 resubmitted", list)
	}
	waitJobState(t, ts.URL, "j2", "done")
	deadline := time.Now().Add(5 * time.Second)
	for len(store.Incomplete()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("journal still has incomplete jobs: %+v", store.Incomplete())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

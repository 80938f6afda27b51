package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sunuintah/internal/runner"
)

// fakeServer mimics the parts of sunserver's API the serve driver uses.
// Every submission takes postDelay to answer; the refuse-th one is
// refused with 429 and the evict-th accepted job is forgotten (404), as
// a server with too small a retention would.
type fakeServer struct {
	postDelay time.Duration
	refuse    int
	evict     string

	mu   sync.Mutex
	n    int
	jobs map[string]jobView
}

func (f *fakeServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/run":
		time.Sleep(f.postDelay)
		var spec runner.Spec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		f.n++
		if f.n == f.refuse {
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"overloaded: queue_full","reason":"queue_full"}`)
			return
		}
		id := fmt.Sprintf("j%d", f.n)
		now := time.Now()
		done := now.Add(time.Millisecond)
		f.jobs[id] = jobView{ID: id, State: "done", Submitted: now, Finished: &done,
			Result: &runner.Result{Feasible: true}}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%q,"status":"/jobs/%s"}`, id, id)
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/jobs/"):
		id := strings.TrimPrefix(r.URL.Path, "/jobs/")
		f.mu.Lock()
		j, ok := f.jobs[id]
		f.mu.Unlock()
		if !ok || id == f.evict {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(j)
	case r.URL.Path == "/healthz":
		fmt.Fprint(w, `{"status":"ok","outstanding":0}`)
	default:
		http.NotFound(w, r)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	fake := &fakeServer{postDelay: 30 * time.Millisecond, refuse: 3, evict: "j4", jobs: map[string]jobView{}}
	ts := httptest.NewServer(fake)
	defer ts.Close()
	c := newClient(ts.URL, 1)
	defer c.close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Five arrivals 10ms apart over one connection whose requests take
	// 30ms: the driver falls behind, and each later arrival is sent late
	// but keeps its due time.
	var arrivals []arrival
	for i := 0; i < 5; i++ {
		arrivals = append(arrivals, arrival{at: time.Duration(i) * 10 * time.Millisecond, spec: serveClasses[i%len(serveClasses)]})
	}
	start := time.Now()
	subs := c.openLoop(ctx, start, arrivals, 1)
	for i, s := range subs {
		if want := start.Add(arrivals[i].at); !s.due.Equal(want) {
			t.Errorf("arrival %d due %v, want %v", i, s.due, want)
		}
		if s.sent.Before(s.due) {
			t.Errorf("arrival %d sent %v before due", i, s.due.Sub(s.sent))
		}
		if s.err != nil {
			t.Errorf("arrival %d: %v", i, s.err)
		}
	}
	// Sent no earlier than four 30ms services after the first send, due
	// 40ms after it: at least 80ms late.
	if late := subs[4].sent.Sub(subs[4].due); late < 80*time.Millisecond {
		t.Errorf("last arrival %v late, want >= 80ms: the driver waited for the server", late)
	}
	if subs[2].status != http.StatusTooManyRequests || subs[2].accepted() || subs[2].err != nil {
		t.Errorf("refused arrival: status %d accepted %v err %v", subs[2].status, subs[2].accepted(), subs[2].err)
	}

	jobs, errs := c.collect(ctx, subs)
	for i := range subs {
		switch {
		case i == 2:
			if errs[i] != nil || jobs[i].ID != "" {
				t.Errorf("refused arrival collected: %+v %v", jobs[i], errs[i])
			}
		case subs[i].id == "j4":
			if errs[i] == nil || !strings.Contains(errs[i].Error(), "404") {
				t.Errorf("evicted job: err %v, want a 404 failure", errs[i])
			}
		default:
			if errs[i] != nil || jobs[i].State != "done" || jobs[i].Finished == nil {
				t.Errorf("job %d: %+v %v", i, jobs[i], errs[i])
			}
		}
	}

	// The fake's results carry no simulation: a reference of 0 matches.
	refs := map[string]float64{}
	for _, a := range arrivals {
		refs[classKey(a.spec)] = 0
	}
	run := &serveRun{phases: [][]servedJob{pair(jobs, errs, subs, 1)}}
	o := newOutcome()
	run.check(o, refs)
	if o.attempted != 5 || o.failed != 2 || len(o.mismatches) != 1 {
		t.Errorf("attempted %d failed %d mismatches %q, want 5, 2 (one refused, one lost) and the lost one", o.attempted, o.failed, o.mismatches)
	}
	if err := c.waitIdle(ctx); err != nil {
		t.Errorf("waitIdle: %v", err)
	}
}

func TestServeScheduleIsSeeded(t *testing.T) {
	a, ab := serveSchedule(5, 2)
	b, bb := serveSchedule(5, 2)
	c, _ := serveSchedule(6, 2)
	if len(a) != int(servePacedRate*2*servePacedShare) || len(ab) != serveBursts {
		t.Fatalf("schedule sizes %d paced, %d bursts", len(a), len(ab))
	}
	same := func(x, y []arrival) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) || ab[0][0] != bb[0][0] {
		t.Error("same seed, different schedule")
	}
	if same(a, c) {
		t.Error("different seeds, same schedule")
	}
	fresh, seen := 0, map[string]bool{}
	for i, x := range a {
		h := x.spec.Hash()
		if i%3 == 2 != seen[h] {
			t.Errorf("arrival %d: repeat=%v, want every third to repeat", i, seen[h])
		}
		if !seen[h] {
			fresh++
		}
		seen[h] = true
	}
	if fresh != len(a)-len(a)/3 {
		t.Errorf("%d fresh of %d", fresh, len(a))
	}
}

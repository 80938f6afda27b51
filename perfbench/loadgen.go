package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"sunuintah/internal/runner"
)

// The serve workload's open-loop driver. Each submission is sent when it
// falls due, whether or not earlier jobs have finished, and is timed from
// that due time: a stalled server delays every later job, and the driver
// never slows down to match it. Completion is read from the server's own
// finished stamps after the phase, so the driver neither polls while the
// server works nor quantises completions to a poll interval.

// arrival is one scheduled submission.
type arrival struct {
	at   time.Duration // due offset from the phase start
	spec runner.Spec
}

// submission is the client-side record of one arrival.
type submission struct {
	spec     runner.Spec
	due      time.Time
	sent     time.Time
	answered time.Time
	status   int    // HTTP status of POST /run
	id       string // job ID when accepted (202)
	err      error  // transport or protocol failure
}

func (s submission) accepted() bool { return s.err == nil && s.status == http.StatusAccepted }

// jobView is the part of GET /jobs/{id} the benchmark reads.
type jobView struct {
	ID        string         `json:"id"`
	State     string         `json:"state"`
	Submitted time.Time      `json:"submitted"`
	Finished  *time.Time     `json:"finished"`
	Result    *runner.Result `json:"result"`
	Error     string         `json:"error"`
}

func (j jobView) terminal() bool {
	return j.State == "done" || j.State == "failed" || j.State == "canceled"
}

// client talks to one sunserver.
type client struct {
	base string
	http *http.Client
}

// newClient returns a client that keeps at most conns connections open.
func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// openLoop sends every arrival at start+at from conns sender goroutines.
// When every sender is busy the next arrival goes out late; its latency
// still counts from its due time.
func (c *client) openLoop(ctx context.Context, start time.Time, arrivals []arrival, conns int) []submission {
	subs := make([]submission, len(arrivals))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				s := &subs[i]
				s.sent = time.Now()
				s.status, s.id, s.err = c.submit(ctx, s.spec)
				s.answered = time.Now()
			}
		}()
	}
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
dispatch:
	for i, a := range arrivals {
		subs[i].spec, subs[i].due = a.spec, start.Add(a.at)
		if d := time.Until(subs[i].due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break dispatch
			}
		}
		select {
		case work <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	for i := range subs {
		if subs[i].sent.IsZero() && subs[i].err == nil {
			subs[i].err = fmt.Errorf("not sent: %v", ctx.Err())
		}
	}
	return subs
}

// submit posts one spec. A 429 is a refusal, not an error.
func (c *client) submit(ctx context.Context, spec runner.Spec) (int, string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/run", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, "", err
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
		var out struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(b, &out); err != nil || out.ID == "" {
			return resp.StatusCode, "", fmt.Errorf("POST /run: bad 202 body %q", b)
		}
		return resp.StatusCode, out.ID, nil
	case http.StatusTooManyRequests:
		return resp.StatusCode, "", nil
	}
	return resp.StatusCode, "", fmt.Errorf("POST /run: status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
}

// getJSON fetches path into v; a non-200 status is an error carrying it.
func (c *client) getJSON(ctx context.Context, path string, v any) error {
	b, err := c.get(ctx, path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

type statusError struct {
	path string
	code int
}

func (e *statusError) Error() string { return fmt.Sprintf("GET %s: status %d", e.path, e.code) }

func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &statusError{path, resp.StatusCode}
	}
	return b, nil
}

// pollEvery paces the post-phase reads; it never touches a latency.
const pollEvery = 10 * time.Millisecond

// waitIdle polls /healthz until the server has no outstanding job.
func (c *client) waitIdle(ctx context.Context) error {
	for {
		var h struct {
			Outstanding int `json:"outstanding"`
		}
		if err := c.getJSON(ctx, "/healthz", &h); err != nil {
			return err
		}
		if h.Outstanding == 0 {
			return nil
		}
		select {
		case <-time.After(pollEvery):
		case <-ctx.Done():
			return fmt.Errorf("waiting for the server to drain: %w", ctx.Err())
		}
	}
}

// collect reads the final state of every accepted submission.
func (c *client) collect(ctx context.Context, subs []submission) ([]jobView, []error) {
	jobs := make([]jobView, len(subs))
	errs := make([]error, len(subs))
	for i, s := range subs {
		if s.accepted() {
			jobs[i], errs[i] = c.awaitJob(ctx, s.id)
		}
	}
	return jobs, errs
}

// awaitJob polls one job until it is terminal. A job the server no longer
// knows (404) is a failure rather than something to wait for: it was
// evicted or lost, and waiting would never end.
func (c *client) awaitJob(ctx context.Context, id string) (jobView, error) {
	for {
		var j jobView
		err := c.getJSON(ctx, "/jobs/"+id, &j)
		var se *statusError
		if errors.As(err, &se) && se.code == http.StatusNotFound {
			return j, fmt.Errorf("job %s: lost (404)", id)
		}
		if err != nil || j.terminal() {
			return j, err
		}
		select {
		case <-time.After(pollEvery):
		case <-ctx.Done():
			return j, fmt.Errorf("job %s still %s: %w", id, j.State, ctx.Err())
		}
	}
}

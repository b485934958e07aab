package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/incsta"
	"repro/internal/libsynth"
)

// TestAdmissionLimiterRejectsWhenSaturated: with the semaphore held at
// capacity, a query times out of the admission queue and gets 503
// "overloaded"; after release it goes through.
func TestAdmissionLimiterRejectsWhenSaturated(t *testing.T) {
	s := New(libsynth.File(), WithAdmission(2, 10*time.Millisecond))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	loadC17(t, ts)

	// Saturate from the test: deterministic, no timing races.
	if !s.adm.acquire(context.Background(), 2) {
		t.Fatal("initial acquire failed")
	}
	var eb errorBody
	code, raw := do(t, http.MethodGet, ts.URL+"/v1/designs/c17", nil, &eb)
	if code != http.StatusServiceUnavailable || eb.Error.Code != codeOverloaded {
		t.Fatalf("saturated query: %d %s", code, raw)
	}

	s.adm.release(2)
	if code, raw := do(t, http.MethodGet, ts.URL+"/v1/designs/c17", nil, nil); code != http.StatusOK {
		t.Fatalf("query after release: %d %s", code, raw)
	}
}

// TestBatchWeighsItsQueryCount: a batch needs as many admission tokens as it
// has queries, so with 3 of 4 tokens held a two-query batch is rejected while
// a single-query batch still fits the remaining slot.
func TestBatchWeighsItsQueryCount(t *testing.T) {
	s := New(libsynth.File(), WithAdmission(4, 10*time.Millisecond))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	loadC17(t, ts)

	if !s.adm.acquire(context.Background(), 3) {
		t.Fatal("initial acquire failed")
	}
	defer s.adm.release(3)

	batch := func(n int) BatchRequest {
		req := BatchRequest{}
		for i := 0; i < n; i++ {
			req.Queries = append(req.Queries, BatchQuery{Kind: "summary"})
		}
		return req
	}
	var eb errorBody
	code, raw := do(t, http.MethodPost, ts.URL+"/v1/designs/c17/batch", batch(2), &eb)
	if code != http.StatusServiceUnavailable || eb.Error.Code != codeOverloaded {
		t.Fatalf("over-weight batch: %d %s", code, raw)
	}
	if code, raw := do(t, http.MethodPost, ts.URL+"/v1/designs/c17/batch", batch(1), nil); code != http.StatusOK {
		t.Fatalf("single-query batch: %d %s", code, raw)
	}
}

// stuckDesign builds a design with a bounded queue and NO writer loop, so the
// queue state is fully deterministic: nothing ever drains it. The engine is
// nil — edits must be rejected before they reach it.
func stuckDesign(depth int) *design {
	return &design{
		name: "stuck",
		reqs: make(chan editReq, depth),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// TestEditQueueFullRejects: a design whose bounded edit queue is full answers
// 503 "overloaded" instead of buffering without limit.
func TestEditQueueFullRejects(t *testing.T) {
	s, ts := newTestServer(t)
	d := stuckDesign(2)
	s.mu.Lock()
	s.designs[d.name] = d
	s.mu.Unlock()

	// Fill the queue.
	d.reqs <- editReq{}
	d.reqs <- editReq{}

	var eb errorBody
	code, raw := do(t, http.MethodPost, ts.URL+"/v1/designs/stuck/edits",
		EditRequest{Op: "resize", Gate: "U1", Strength: 4}, &eb)
	if code != http.StatusServiceUnavailable || eb.Error.Code != codeOverloaded {
		t.Fatalf("full queue: %d %s", code, raw)
	}

	// Remove the loop-less design before Server.Close, which would block on
	// d.done.
	s.mu.Lock()
	delete(s.designs, d.name)
	s.mu.Unlock()
}

// TestEditWaitHonorsClientDisconnect: a submit whose context dies while
// waiting for the writer returns the context error instead of blocking
// forever on a reply that is not coming.
func TestEditWaitHonorsClientDisconnect(t *testing.T) {
	d := stuckDesign(4)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := d.submit(ctx, incsta.Edit{Op: incsta.OpResize, Gate: "U1", Strength: 4})
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond) // let it enqueue and start waiting
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("submit returned %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("submit did not honor the cancelled context")
	}
}

// TestMaxBodyBytesRejectsHugeLoad: a design-load body over the configured
// limit gets 413 "payload_too_large"; one within it still loads.
func TestMaxBodyBytesRejectsHugeLoad(t *testing.T) {
	s := New(libsynth.File(), WithMaxBodyBytes(512))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	big := LoadRequest{Bench: c17Bench + "\n# " + strings.Repeat("x", 4096)}
	var eb errorBody
	code, raw := do(t, http.MethodPut, ts.URL+"/v1/designs/huge", big, &eb)
	if code != http.StatusRequestEntityTooLarge || eb.Error.Code != codePayloadLarge {
		t.Fatalf("oversized load: %d %s", code, raw)
	}
	if code, raw := do(t, http.MethodPut, ts.URL+"/v1/designs/ok", LoadRequest{Bench: c17Bench}, nil); code != http.StatusCreated {
		t.Fatalf("in-limit load: %d %s", code, raw)
	}
}

// TestBatchStopsOnCancelledContext: a dead client mid-batch stops the
// evaluation loop instead of computing answers nobody will read.
func TestBatchStopsOnCancelledContext(t *testing.T) {
	s, ts := newTestServer(t)
	loadC17(t, ts)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // client is already gone
	body := `{"queries":[{"kind":"summary"},{"kind":"paths","k":3},{"kind":"slacks","period_ps":500}]}`
	req := httptest.NewRequest(http.MethodPost, "/v1/designs/c17/batch", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Body.Len() != 0 {
		t.Fatalf("cancelled batch still produced a %d-byte response: %s", rec.Body.Len(), rec.Body.String())
	}
}

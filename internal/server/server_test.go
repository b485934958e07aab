package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/libsynth"
)

const c17Bench = `
# ISCAS85 c17
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
`

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(libsynth.File())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// do issues a request and decodes the JSON response into out (if non-nil).
func do(t *testing.T, method, url string, body any, out any) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, string(raw)
}

func loadC17(t *testing.T, ts *httptest.Server) DesignSummary {
	t.Helper()
	var sum DesignSummary
	code, raw := do(t, http.MethodPut, ts.URL+"/v1/designs/c17", LoadRequest{Bench: c17Bench}, &sum)
	if code != http.StatusCreated {
		t.Fatalf("load c17: status %d: %s", code, raw)
	}
	return sum
}

func gateNames(t *testing.T, ts *httptest.Server, design string) []GateInfo {
	t.Helper()
	var resp struct {
		Gates []GateInfo `json:"gates"`
	}
	code, raw := do(t, http.MethodGet, ts.URL+"/v1/designs/"+design+"/gates", nil, &resp)
	if code != http.StatusOK || len(resp.Gates) == 0 {
		t.Fatalf("gates: status %d: %s", code, raw)
	}
	return resp.Gates
}

func TestLoadQueryEditLifecycle(t *testing.T) {
	_, ts := newTestServer(t)

	sum := loadC17(t, ts)
	if sum.Gates != 6 || sum.Version != 1 {
		t.Fatalf("c17 summary = %+v, want 6 gates at version 1", sum)
	}
	if sum.ArrivalPs["0"] <= 0 || sum.ArrivalPs["3"] <= sum.ArrivalPs["0"] {
		t.Fatalf("implausible arrival quantiles: %v", sum.ArrivalPs)
	}

	var paths struct {
		Version uint64        `json:"version"`
		Paths   []PathSummary `json:"paths"`
	}
	code, raw := do(t, http.MethodGet, ts.URL+"/v1/designs/c17/paths?k=3", nil, &paths)
	if code != http.StatusOK || len(paths.Paths) == 0 {
		t.Fatalf("paths: status %d: %s", code, raw)
	}
	if paths.Paths[0].QuantilePs["0"] != sum.ArrivalPs["0"] {
		t.Fatalf("worst path %v does not match the critical arrival %v",
			paths.Paths[0].QuantilePs["0"], sum.ArrivalPs["0"])
	}

	gates := gateNames(t, ts, "c17")
	var edit EditResponse
	code, raw = do(t, http.MethodPost, ts.URL+"/v1/designs/c17/edits",
		EditRequest{Op: "resize", Gate: gates[0].Name, Strength: 8}, &edit)
	if code != http.StatusOK {
		t.Fatalf("resize: status %d: %s", code, raw)
	}
	if edit.Version != 2 || edit.Reevaluated == 0 {
		t.Fatalf("resize response = %+v, want version 2 with re-evaluations", edit)
	}

	var slacks struct {
		WNSPs    float64            `json:"wns_ps"`
		SlacksPs map[string]float64 `json:"slacks_ps"`
	}
	code, raw = do(t, http.MethodGet, ts.URL+"/v1/designs/c17/slacks?period_ps=2000&level=3", nil, &slacks)
	if code != http.StatusOK || len(slacks.SlacksPs) == 0 {
		t.Fatalf("slacks: status %d: %s", code, raw)
	}
	for _, sl := range slacks.SlacksPs {
		if sl < slacks.WNSPs {
			t.Fatalf("WNS %v is not the minimum of %v", slacks.WNSPs, slacks.SlacksPs)
		}
	}

	code, raw = do(t, http.MethodGet, ts.URL+"/metrics", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	for _, want := range []string{
		`timingd_design_edits_total{design="c17"} 1`,
		`timingd_design_gates_reevaluated_total{design="c17"}`,
		`timingd_design_cache_hit_ratio{design="c17"}`,
		// The request metrics live on the process-wide obs registry, so the
		// counts accumulate across tests: assert the series exist, not their
		// exact values.
		`timingd_requests_total{route="POST /v1/designs/{name}/edits"}`,
		`timingd_request_seconds_count{route="GET /v1/designs/{name}/slacks"}`,
		"timingd_designs 1",
	} {
		if !strings.Contains(raw, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, raw)
		}
	}

	if code, _ = do(t, http.MethodDelete, ts.URL+"/v1/designs/c17", nil, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	if code, _ = do(t, http.MethodGet, ts.URL+"/v1/designs/c17", nil, nil); code != http.StatusNotFound {
		t.Fatalf("summary after delete: status %d, want 404", code)
	}
}

func TestLoadBuiltinCircuit(t *testing.T) {
	_, ts := newTestServer(t)
	var sum DesignSummary
	code, raw := do(t, http.MethodPut, ts.URL+"/v1/designs/adder", LoadRequest{Circuit: "ADD"}, &sum)
	if code != http.StatusCreated {
		t.Fatalf("load ADD: status %d: %s", code, raw)
	}
	if sum.Gates == 0 {
		t.Fatalf("built-in circuit loaded empty: %+v", sum)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t)
	loadC17(t, ts)

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"load both sources", http.MethodPut, "/v1/designs/x", LoadRequest{Circuit: "ADD", Bench: c17Bench}, http.StatusBadRequest},
		{"load no source", http.MethodPut, "/v1/designs/x", LoadRequest{}, http.StatusBadRequest},
		{"load unknown circuit", http.MethodPut, "/v1/designs/x", LoadRequest{Circuit: "zz9"}, http.StatusBadRequest},
		{"duplicate load", http.MethodPut, "/v1/designs/c17", LoadRequest{Bench: c17Bench}, http.StatusConflict},
		{"query missing design", http.MethodGet, "/v1/designs/nope", nil, http.StatusNotFound},
		{"paths bad k", http.MethodGet, "/v1/designs/c17/paths?k=0", nil, http.StatusBadRequest},
		{"slacks no period", http.MethodGet, "/v1/designs/c17/slacks", nil, http.StatusBadRequest},
		{"edit unknown op", http.MethodPost, "/v1/designs/c17/edits", EditRequest{Op: "explode"}, http.StatusBadRequest},
		{"edit unknown gate", http.MethodPost, "/v1/designs/c17/edits", EditRequest{Op: "resize", Gate: "UX", Strength: 2}, http.StatusBadRequest},
		{"edit bad slew", http.MethodPost, "/v1/designs/c17/edits", EditRequest{Op: "set_input_slew", Net: "G1", SlewPs: -5}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, raw := do(t, tc.method, ts.URL+tc.path, tc.body, nil)
		if code != tc.want {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, code, tc.want, raw)
		}
	}
}

// TestConcurrentQueriesWithEditStream is the issue's server acceptance: at
// least 32 concurrent query goroutines mixed with a stream of edits, all
// succeeding, race-clean (run under -race in CI).
func TestConcurrentQueriesWithEditStream(t *testing.T) {
	_, ts := newTestServer(t)
	loadC17(t, ts)
	gates := gateNames(t, ts, "c17")

	const queryGoroutines = 32
	const queriesEach = 20
	var wg sync.WaitGroup
	errs := make(chan error, queryGoroutines+1)

	for i := 0; i < queryGoroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < queriesEach; j++ {
				var url string
				switch j % 3 {
				case 0:
					url = ts.URL + "/v1/designs/c17"
				case 1:
					url = ts.URL + "/v1/designs/c17/paths?k=2"
				default:
					url = ts.URL + "/v1/designs/c17/slacks?period_ps=2000"
				}
				resp, err := http.Get(url)
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("query %s: status %d", url, resp.StatusCode)
					return
				}
			}
		}(i)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		strengths := []int{1, 2, 4, 8}
		for j := 0; j < 50; j++ {
			body, _ := json.Marshal(EditRequest{
				Op: "resize", Gate: gates[j%len(gates)].Name, Strength: strengths[j%len(strengths)],
			})
			resp, err := http.Post(ts.URL+"/v1/designs/c17/edits", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("edit %d: status %d", j, resp.StatusCode)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var sum DesignSummary
	if code, raw := do(t, http.MethodGet, ts.URL+"/v1/designs/c17", nil, &sum); code != http.StatusOK {
		t.Fatalf("final summary: status %d: %s", code, raw)
	}
	if sum.Stats.Edits != 50 || sum.Version != 51 {
		t.Fatalf("after 50 edits: %+v", sum)
	}
	code, raw := do(t, http.MethodGet, ts.URL+"/metrics", nil, nil)
	if code != http.StatusOK || !strings.Contains(raw, `timingd_design_edits_total{design="c17"} 50`) {
		t.Fatalf("metrics after edit stream (status %d):\n%s", code, raw)
	}
}

func TestCloseRejectsFurtherWork(t *testing.T) {
	s := New(libsynth.File())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var sum DesignSummary
	if code, raw := do(t, http.MethodPut, ts.URL+"/v1/designs/c17", LoadRequest{Bench: c17Bench}, &sum); code != http.StatusCreated {
		t.Fatalf("load: status %d: %s", code, raw)
	}
	s.Close()
	code, _ := do(t, http.MethodPut, ts.URL+"/v1/designs/d2", LoadRequest{Bench: c17Bench}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("load after close: status %d, want 503", code)
	}
	// The design registry is cleared on close, so queries and edits 404.
	if code, _ = do(t, http.MethodPost, ts.URL+"/v1/designs/c17/edits",
		EditRequest{Op: "resize", Gate: "U1", Strength: 2}, nil); code != http.StatusNotFound {
		t.Fatalf("edit after close: status %d, want 404", code)
	}
}

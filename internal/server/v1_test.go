package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// readAll drains and closes a response body.
func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// jsonUnmarshal decodes strictly: unknown fields mean the body is not the
// expected shape.
func jsonUnmarshal(raw string, out any) error {
	dec := json.NewDecoder(strings.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(out)
}

// decodeEnvelope asserts a response body is the v1 error envelope and
// returns its code and message.
func decodeEnvelope(t *testing.T, raw string) (code, message string) {
	t.Helper()
	var body errorBody
	if err := jsonUnmarshal(raw, &body); err != nil {
		t.Fatalf("response is not the error envelope: %q (%v)", raw, err)
	}
	if body.Error.Code == "" || body.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %q", raw)
	}
	return body.Error.Code, body.Error.Message
}

// loadC17V1 loads the c17 fixture through the canonical v1 route.
func loadC17V1(t *testing.T, ts *httptest.Server, name string, req LoadRequest) DesignSummary {
	t.Helper()
	if req.Bench == "" && req.Circuit == "" {
		req.Bench = c17Bench
	}
	var sum DesignSummary
	code, raw := do(t, http.MethodPut, ts.URL+"/v1/designs/"+name, req, &sum)
	if code != http.StatusCreated {
		t.Fatalf("load %s: status %d: %s", name, code, raw)
	}
	return sum
}

// TestV1RoutesAndBarePathsUnknown checks every resource resolves under /v1
// without deprecation headers, and that its bare pre-v1 path is an unknown
// route: a JSON 404 with code "unknown_route".
func TestV1RoutesAndBarePathsUnknown(t *testing.T) {
	_, ts := newTestServer(t)
	loadC17V1(t, ts, "c17", LoadRequest{})

	paths := []string{
		"/designs",
		"/designs/c17",
		"/designs/c17/gates",
		"/designs/c17/paths?k=2",
		"/designs/c17/slacks?period_ps=6000",
	}
	for _, p := range paths {
		resp, err := http.Get(ts.URL + "/v1" + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1%s: status %d", p, resp.StatusCode)
		}
		if resp.Header.Get("Deprecation") != "" {
			t.Fatalf("GET /v1%s: canonical route carries a Deprecation header", p)
		}

		resp, err = http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		raw := readAll(t, resp)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s (bare): status %d, want 404: %s", p, resp.StatusCode, raw)
		}
		if code, _ := decodeEnvelope(t, raw); code != "unknown_route" {
			t.Fatalf("GET %s (bare): error code %q, want unknown_route", p, code)
		}
	}
}

// TestErrorEnvelopeShapes drives the error paths the issue names and
// asserts each answers with the {"error":{code,message}} envelope and a
// stable code.
func TestErrorEnvelopeShapes(t *testing.T) {
	_, ts := newTestServer(t)
	loadC17V1(t, ts, "c17", LoadRequest{})

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"malformed load JSON", "PUT", "/v1/designs/x", "{not json", http.StatusBadRequest, "invalid_request"},
		{"both circuit and bench", "PUT", "/v1/designs/x", `{"circuit":"c432","bench":"x"}`, http.StatusBadRequest, "invalid_request"},
		{"neither circuit nor bench", "PUT", "/v1/designs/x", `{}`, http.StatusBadRequest, "invalid_request"},
		{"bad corner", "PUT", "/v1/designs/x", `{"circuit":"c432","corners":[{"cap_scale":-1}]}`, http.StatusBadRequest, "invalid_request"},
		{"duplicate design", "PUT", "/v1/designs/c17", `{"bench":"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"}`, http.StatusConflict, "already_exists"},
		{"unknown design summary", "GET", "/v1/designs/ghost", "", http.StatusNotFound, "not_found"},
		{"unknown design delete", "DELETE", "/v1/designs/ghost", "", http.StatusNotFound, "not_found"},
		{"unknown design edit", "POST", "/v1/designs/ghost/edits", `{"op":"resize"}`, http.StatusNotFound, "not_found"},
		{"malformed edit JSON", "POST", "/v1/designs/c17/edits", "{", http.StatusBadRequest, "invalid_request"},
		{"unknown edit op", "POST", "/v1/designs/c17/edits", `{"op":"explode"}`, http.StatusBadRequest, "invalid_request"},
		{"rejected edit", "POST", "/v1/designs/c17/edits", `{"op":"resize","gate":"nope","strength":4}`, http.StatusBadRequest, "edit_rejected"},
		{"bad paths k", "GET", "/v1/designs/c17/paths?k=0", "", http.StatusBadRequest, "invalid_request"},
		{"unknown corner", "GET", "/v1/designs/c17/paths?corner=ghost", "", http.StatusBadRequest, "invalid_request"},
		{"missing period", "GET", "/v1/designs/c17/slacks", "", http.StatusBadRequest, "invalid_request"},
		{"malformed batch JSON", "POST", "/v1/designs/c17/batch", "{", http.StatusBadRequest, "invalid_request"},
		{"empty batch", "POST", "/v1/designs/c17/batch", `{"queries":[]}`, http.StatusBadRequest, "invalid_request"},
		{"unknown route", "GET", "/v2/designs", "", http.StatusNotFound, "unknown_route"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw := readAll(t, resp)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.wantStatus, raw)
			}
			code, _ := decodeEnvelope(t, raw)
			if code != tc.wantCode {
				t.Fatalf("error code %q, want %q: %s", code, tc.wantCode, raw)
			}
		})
	}
}

// TestBatchEndpoint covers the pinned-snapshot batch: mixed query kinds,
// per-query errors that don't fail siblings, and the oversize rejection.
func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	loadC17V1(t, ts, "c17", LoadRequest{
		Corners: []CornerSpec{{Name: "typ"}, {Name: "slow", CapScale: 1.2}},
	})

	var resp BatchResponse
	code, raw := do(t, http.MethodPost, ts.URL+"/v1/designs/c17/batch", BatchRequest{
		Queries: []BatchQuery{
			{Kind: "summary"},
			{Kind: "summary", Corner: "slow"},
			{Kind: "paths", K: 2, Corner: "slow"},
			{Kind: "slacks", PeriodPs: 6000},
			{Kind: "paths", Corner: "ghost"}, // per-query error
			{Kind: "nonsense"},               // per-query error
		},
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", code, raw)
	}
	if len(resp.Results) != 6 {
		t.Fatalf("batch returned %d results, want 6", len(resp.Results))
	}
	for i := 0; i < 4; i++ {
		if resp.Results[i].Error != nil {
			t.Fatalf("query %d failed: %+v", i, resp.Results[i].Error)
		}
		if resp.Results[i].Result == nil {
			t.Fatalf("query %d has no result", i)
		}
	}
	for i := 4; i < 6; i++ {
		if resp.Results[i].Error == nil || resp.Results[i].Error.Code != "invalid_request" {
			t.Fatalf("query %d should have failed with invalid_request: %+v", i, resp.Results[i])
		}
	}
	if resp.Version == 0 {
		t.Fatal("batch response carries no snapshot version")
	}

	// Oversized batch → 413 with the envelope.
	big := BatchRequest{Queries: make([]BatchQuery, maxBatchQueries+1)}
	for i := range big.Queries {
		big.Queries[i] = BatchQuery{Kind: "summary"}
	}
	codeBig, rawBig := do(t, http.MethodPost, ts.URL+"/v1/designs/c17/batch", big, nil)
	if codeBig != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: status %d: %s", codeBig, rawBig)
	}
	if c, _ := decodeEnvelope(t, rawBig); c != "batch_too_large" {
		t.Fatalf("oversized batch: code %q", c)
	}
}

// TestMultiCornerQueries loads a design with two corners and checks the
// ?corner= parameter selects distinct results across summary, paths and
// slacks.
func TestMultiCornerQueries(t *testing.T) {
	_, ts := newTestServer(t)
	sum := loadC17V1(t, ts, "c17", LoadRequest{
		Corners: []CornerSpec{{Name: "typ"}, {Name: "slow", CapScale: 1.5}},
	})
	if sum.Corner != "typ" || len(sum.Corners) != 2 {
		t.Fatalf("load summary corners: %q %v", sum.Corner, sum.Corners)
	}

	var typ, slow DesignSummary
	do(t, http.MethodGet, ts.URL+"/v1/designs/c17?corner=typ", nil, &typ)
	do(t, http.MethodGet, ts.URL+"/v1/designs/c17?corner=slow", nil, &slow)
	if typ.Corner != "typ" || slow.Corner != "slow" {
		t.Fatalf("summary corner labels: %q / %q", typ.Corner, slow.Corner)
	}
	if slow.ArrivalPs["0"] <= typ.ArrivalPs["0"] {
		t.Fatalf("cap-derated corner should be slower: slow %v vs typ %v",
			slow.ArrivalPs["0"], typ.ArrivalPs["0"])
	}

	var sl struct {
		WNS float64 `json:"wns_ps"`
	}
	do(t, http.MethodGet, ts.URL+"/v1/designs/c17/slacks?period_ps=6000&corner=typ", nil, &sl)
	typWNS := sl.WNS
	do(t, http.MethodGet, ts.URL+"/v1/designs/c17/slacks?period_ps=6000&corner=slow", nil, &sl)
	if sl.WNS >= typWNS {
		t.Fatalf("slow corner WNS %v should be worse than typ %v", sl.WNS, typWNS)
	}
}

// TestConcurrentDeleteWhileQuerying hammers queries and batches against a
// design that is deleted mid-flight: every response must be either a
// well-formed success or a well-formed envelope error — never a hang, panic
// or malformed body.
func TestConcurrentDeleteWhileQuerying(t *testing.T) {
	_, ts := newTestServer(t)
	loadC17V1(t, ts, "c17", LoadRequest{})

	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < 25; i++ {
				var url string
				switch i % 3 {
				case 0:
					url = ts.URL + "/v1/designs/c17"
				case 1:
					url = ts.URL + "/v1/designs/c17/paths?k=2"
				case 2:
					url = ts.URL + "/v1/designs/c17/slacks?period_ps=6000"
				}
				resp, err := http.Get(url)
				if err != nil {
					errs <- err
					return
				}
				raw := readAll(t, resp)
				switch resp.StatusCode {
				case http.StatusOK:
				case http.StatusNotFound:
					var body errorBody
					if err := jsonUnmarshal(raw, &body); err != nil || body.Error.Code != "not_found" {
						errs <- fmt.Errorf("worker %d: 404 without envelope: %s", w, raw)
						return
					}
				default:
					errs <- fmt.Errorf("worker %d: unexpected status %d: %s", w, resp.StatusCode, raw)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/designs/c17", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			errs <- err
			return
		}
		resp.Body.Close()
	}()
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

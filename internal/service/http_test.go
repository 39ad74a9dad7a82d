package service

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func httpFixture(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler(New(32)))
	t.Cleanup(srv.Close)
	return srv
}

func doReq(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
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
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: non-JSON response: %v", method, url, err)
	}
	return resp.StatusCode, out
}

func TestHTTPLifecycle(t *testing.T) {
	srv := httpFixture(t)

	if code, body := doReq(t, "GET", srv.URL+"/healthz", ""); code != 200 || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, body)
	}

	// Register a dataset, then run every analysis endpoint against it.
	code, body := doReq(t, "POST", srv.URL+"/datasets?name=block", blockCSV(3, 2, 2))
	if code != http.StatusCreated || body["rows"] != float64(12) {
		t.Fatalf("register: %d %v", code, body)
	}

	// Duplicate name → 409.
	if code, _ := doReq(t, "POST", srv.URL+"/datasets?name=block", blockCSV(2, 2, 2)); code != http.StatusConflict {
		t.Fatalf("duplicate register: %d", code)
	}

	// Malformed CSV (duplicate header) → 400 with the ingestion error, not
	// a panic/500: the headline bugfix observed end-to-end.
	code, body = doReq(t, "POST", srv.URL+"/datasets?name=bad", "A,B,A\n1,2,3\n")
	if code != http.StatusBadRequest || !strings.Contains(body["error"].(string), `duplicate attribute "A"`) {
		t.Fatalf("malformed register: %d %v", code, body)
	}

	code, body = doReq(t, "GET", srv.URL+"/datasets", "")
	if code != 200 || len(body["datasets"].([]any)) != 1 {
		t.Fatalf("list: %d %v", code, body)
	}

	// '|' is the query-safe bag separator; %3B (escaped ';') works too.
	code, body = doReq(t, "GET", srv.URL+"/analyze?dataset=block&schema=A,C|B,C", "")
	if code != 200 || body["lossless"] != true {
		t.Fatalf("analyze: %d %v", code, body)
	}
	code, body = doReq(t, "GET", srv.URL+"/analyze?dataset=block&schema=A,C%3BB,C", "")
	if code != 200 || body["lossless"] != true {
		t.Fatalf("analyze (%%3B): %d %v", code, body)
	}

	code, body = doReq(t, "GET", srv.URL+"/discover?dataset=block&target=1e-9&maxsep=1", "")
	if code != 200 || body["dataset"] != "block" {
		t.Fatalf("discover: %d %v", code, body)
	}
	if mvds := body["mvds"].([]any); len(mvds) == 0 {
		t.Fatal("discover returned no MVDs")
	}

	code, body = doReq(t, "GET", srv.URL+"/entropy?dataset=block&a=A&b=B&given=C", "")
	if code != 200 || body["kind"] != "cmi" || body["nats"].(float64) > 1e-9 {
		t.Fatalf("entropy: %d %v", code, body)
	}

	code, body = doReq(t, "GET", srv.URL+"/stats", "")
	if code != 200 || body["requests"].(float64) < 3 {
		t.Fatalf("stats: %d %v", code, body)
	}

	if code, _ := doReq(t, "DELETE", srv.URL+"/datasets/block", ""); code != 200 {
		t.Fatalf("delete: %d", code)
	}
	if code, _ := doReq(t, "DELETE", srv.URL+"/datasets/block", ""); code != http.StatusNotFound {
		t.Fatalf("re-delete: %d", code)
	}
}

func TestHTTPErrors(t *testing.T) {
	srv := httpFixture(t)
	cases := []struct {
		method, path string
		wantCode     int
	}{
		// A raw ';' anywhere in the query is a 400 with an actionable message
		// (net/http would silently drop everything after it) — even before
		// the dataset lookup, so the caller hears about the real problem.
		{"GET", "/analyze?dataset=missing&schema=A;B", http.StatusBadRequest},
		{"GET", "/analyze?dataset=missing&schema=A,B|B,C", http.StatusNotFound},
		{"GET", "/discover?dataset=missing", http.StatusNotFound},
		{"GET", "/entropy?dataset=missing&attrs=A", http.StatusNotFound},
		{"GET", "/discover?dataset=missing&target=zzz", http.StatusBadRequest},
		{"GET", "/discover?dataset=missing&maxsep=1.5", http.StatusBadRequest},
		{"POST", "/datasets?name=", http.StatusBadRequest},
	}
	for _, c := range cases {
		code, body := doReq(t, c.method, srv.URL+c.path, "")
		if code != c.wantCode {
			t.Errorf("%s %s = %d (%v), want %d", c.method, c.path, code, body, c.wantCode)
		}
		if body["error"] == "" {
			t.Errorf("%s %s: empty error body", c.method, c.path)
		}
	}
}

// TestHTTPAppend exercises the streaming append endpoint end-to-end: CSV
// bodies, JSON bodies (bare array and {"rows": ...}, strings and numbers),
// the header=1 form, and the error paths.
func TestHTTPAppend(t *testing.T) {
	srv := httpFixture(t)
	if code, body := doReq(t, "POST", srv.URL+"/datasets?name=block", blockCSV(3, 2, 2)); code != http.StatusCreated {
		t.Fatalf("register: %d %v", code, body)
	}

	// CSV body.
	code, body := doReq(t, "POST", srv.URL+"/datasets/block/append", "50,60,7\n51,61,7\n")
	if code != 200 || body["appended"] != float64(2) || body["rows"] != float64(14) || body["generation"] != float64(2) {
		t.Fatalf("csv append: %d %v", code, body)
	}

	// JSON bodies: bare array with numbers, wrapped array with strings.
	req, _ := http.NewRequest("POST", srv.URL+"/datasets/block/append", strings.NewReader(`[[52, 62, 7]]`))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || out["appended"] != float64(1) || out["generation"] != float64(3) {
		t.Fatalf("json append: %d %v", resp.StatusCode, out)
	}
	req, _ = http.NewRequest("POST", srv.URL+"/datasets/block/append", strings.NewReader(`{"rows":[["53","63","7"]]}`))
	req.Header.Set("Content-Type", "application/json")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || out["appended"] != float64(1) || out["generation"] != float64(4) {
		t.Fatalf("wrapped json append: %d %v", resp.StatusCode, out)
	}

	// JSON shape is detected even without Content-Type: a body starting
	// with '[' is never plausible CSV and must not be CSV-mangled into
	// garbage rows like "[[55".
	code, body = doReq(t, "POST", srv.URL+"/datasets/block/append", `[[55,65,7]]`)
	if code != 200 || body["appended"] != float64(1) || body["generation"] != float64(5) {
		t.Fatalf("sniffed json append: %d %v", code, body)
	}

	// header=1 with the schema's header row.
	code, body = doReq(t, "POST", srv.URL+"/datasets/block/append?header=1", "A,B,C\n54,64,7\n")
	if code != 200 || body["appended"] != float64(1) {
		t.Fatalf("header append: %d %v", code, body)
	}

	// Dataset listing reflects the appended rows and the bumped generation.
	code, body = doReq(t, "GET", srv.URL+"/datasets", "")
	info := body["datasets"].([]any)[0].(map[string]any)
	if code != 200 || info["rows"] != float64(18) || info["generation"] != float64(6) {
		t.Fatalf("datasets after appends: %d %v", code, body)
	}

	// Error paths: unknown dataset (404), ragged row, bad header, bad JSON.
	if code, _ := doReq(t, "POST", srv.URL+"/datasets/nope/append", "1,2,3\n"); code != http.StatusNotFound {
		t.Fatalf("append to unknown dataset: %d", code)
	}
	if code, _ := doReq(t, "POST", srv.URL+"/datasets/block/append", "1,2\n"); code != http.StatusBadRequest {
		t.Fatalf("ragged append: %d", code)
	}
	if code, _ := doReq(t, "POST", srv.URL+"/datasets/block/append?header=1", "A,B,X\n1,2,3\n"); code != http.StatusBadRequest {
		t.Fatalf("bad header append: %d", code)
	}
	for name, body := range map[string]string{
		"non-scalar cell":  `[[{"not":"scalar"}]]`,
		"missing rows key": `{"data":[[1,2,3]]}`,  // must not read as an empty batch
		"trailing data":    `[[1,2,3]] [[4,5,6]]`, // second batch must not be silently dropped
		"null body":        `null`,                // must not read as an empty batch
	} {
		req, _ = http.NewRequest("POST", srv.URL+"/datasets/block/append", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestHTTPNoHeaderRegistration exercises the noheader query parameter: the
// columns are named c1..ck.
func TestHTTPNoHeaderRegistration(t *testing.T) {
	srv := httpFixture(t)
	code, body := doReq(t, "POST", srv.URL+"/datasets?name=raw&noheader=1", "1,2\n3,4\n")
	if code != http.StatusCreated {
		t.Fatalf("register: %d %v", code, body)
	}
	attrs := body["attrs"].([]any)
	if len(attrs) != 2 || attrs[0] != "c1" || attrs[1] != "c2" {
		t.Fatalf("attrs = %v", attrs)
	}
	if code, body := doReq(t, "GET", srv.URL+"/entropy?dataset=raw&attrs=c1,c2", ""); code != 200 {
		t.Fatalf("entropy: %d %v", code, body)
	}
	// noheader=0 means "has a header": the first row names the columns.
	code, body = doReq(t, "POST", srv.URL+"/datasets?name=hdr&noheader=0", "X,Y\n1,2\n")
	if code != http.StatusCreated || body["attrs"].([]any)[0] != "X" {
		t.Fatalf("noheader=0: %d %v", code, body)
	}
	// Unparseable boolean → 400, not silent truth.
	if code, _ := doReq(t, "POST", srv.URL+"/datasets?name=z&noheader=maybe", "A\n1\n"); code != http.StatusBadRequest {
		t.Fatalf("noheader=maybe: %d", code)
	}
}

// TestHTTPBatch drives POST /batch end-to-end: many query kinds answered
// against one snapshot in one round trip, with the generation echoed, plus
// the error paths (malformed body, unknown dataset, invalid query).
func TestHTTPBatch(t *testing.T) {
	srv := httpFixture(t)
	if code, body := doReq(t, "POST", srv.URL+"/datasets?name=block", blockCSV(3, 2, 2)); code != http.StatusCreated {
		t.Fatalf("register: %d %v", code, body)
	}
	code, body := doReq(t, "POST", srv.URL+"/batch", `{
		"dataset": "block",
		"queries": [
			{"kind": "entropy", "attrs": ["A"]},
			{"kind": "mi", "a": ["A"], "b": ["B"]},
			{"kind": "cmi", "a": ["A"], "b": ["B"], "given": ["C"]},
			{"kind": "fd", "x": ["A", "B", "C"], "y": ["A"]},
			{"kind": "distinct", "attrs": ["A", "B", "C"]}
		]
	}`)
	if code != http.StatusOK {
		t.Fatalf("batch: %d %v", code, body)
	}
	if body["generation"] != float64(1) || body["rows"] != float64(12) {
		t.Fatalf("batch header: %v", body)
	}
	results, ok := body["results"].([]any)
	if !ok || len(results) != 5 {
		t.Fatalf("results: %v", body["results"])
	}
	if r := results[0].(map[string]any); r["nats"] == nil || r["bits"] == nil {
		t.Fatalf("entropy result: %v", r)
	}
	// C ↠ A|B makes I(A;B|C) = 0 in the planted block instance.
	if r := results[2].(map[string]any); r["nats"].(float64) != 0 {
		t.Fatalf("cmi result: %v", r)
	}
	if r := results[3].(map[string]any); r["holds"] != true || r["g3"].(float64) != 0 {
		t.Fatalf("fd result: %v", r)
	}
	if r := results[4].(map[string]any); r["distinct"] != float64(12) {
		t.Fatalf("distinct result: %v", r)
	}

	for _, c := range []struct {
		body     string
		wantCode int
	}{
		{`{"dataset": "missing", "queries": [{"kind": "entropy", "attrs": ["A"]}]}`, http.StatusNotFound},
		{`{"dataset": "block", "queries": []}`, http.StatusBadRequest},
		{`{"dataset": "block", "queries": [{"kind": "warp"}]}`, http.StatusBadRequest},
		{`{"dataset": "block", "queries": [{"kind": "entropy", "attrs": ["nope"]}]}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	} {
		code, body := doReq(t, "POST", srv.URL+"/batch", c.body)
		if code != c.wantCode || body["error"] == "" {
			t.Errorf("batch %s = %d (%v), want %d with error", c.body, code, body, c.wantCode)
		}
	}
}

// TestDiscoverRejectsNonFiniteTarget: strconv.ParseFloat accepts NaN and
// ±Inf, and a NaN target reached discovery, cached its view and then failed
// to encode after the 200 was sent (an empty body). Both routes must answer
// 400 naming the parameter, and nothing may be cached.
func TestDiscoverRejectsNonFiniteTarget(t *testing.T) {
	s := newTestService(t, 16)
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(srv.Close)
	for _, prefix := range []string{"", "/v1/default"} {
		for _, target := range []string{"NaN", "Inf", "%2BInf", "-Inf", "infinity"} {
			url := srv.URL + prefix + "/discover?dataset=block&target=" + target
			code, body := doReq(t, "GET", url, "")
			if code != http.StatusBadRequest || !strings.Contains(body["error"].(string), "target") {
				t.Fatalf("GET %s: %d %v, want 400 naming target", url, code, body)
			}
		}
	}
	if n := s.cache.Len(); n != 0 {
		t.Fatalf("rejected requests left %d cached results", n)
	}
}

// TestWriteJSONEncodeFailure: a value JSON cannot encode answers 500 with a
// JSON error, never the requested status with an empty body, and a value
// that encodes is written whole under the requested status.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"j": math.NaN()})
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("NaN answer is not JSON: %q (%v)", rec.Body.String(), err)
	}
	if rec.Code != http.StatusInternalServerError || !strings.Contains(body["error"], "NaN") {
		t.Fatalf("NaN answer: %d %q, want 500 with an error naming NaN", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusCreated, map[string]float64{"j": 0.5})
	if rec.Code != http.StatusCreated || rec.Body.String() != "{\n  \"j\": 0.5\n}\n" {
		t.Fatalf("encodable answer: %d %q", rec.Code, rec.Body.String())
	}
}

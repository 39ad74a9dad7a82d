package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"ajdloss/internal/apischema"
)

// TestLegacyAPIGoldenParity pins the byte-level behavior of every legacy
// (unversioned) route: a fixed, fully sequential request sequence is run
// against a fresh handler and the concatenated responses — status, content
// type, and exact body bytes — must match the committed golden transcript.
// The golden was recorded from the pre-namespace (PR 6) handler, so this is
// the proof that aliasing the legacy routes onto the default namespace
// changed nothing a legacy client can observe. Regenerate (deliberately!)
// with UPDATE_GOLDEN=1 go test -run LegacyAPIGoldenParity ./internal/service.
func TestLegacyAPIGoldenParity(t *testing.T) {
	h := NewHandler(New(64))
	var buf bytes.Buffer
	for _, q := range goldenRequests {
		rec := q.serve(h, q.path)
		fmt.Fprintf(&buf, "### %s %s\n%d %s\n%s\n",
			q.method, q.path, rec.Code, rec.Header().Get("Content-Type"), rec.Body.String())
	}

	got := maskTimestamps(buf.String())
	golden := filepath.Join("testdata", "legacy_api_golden.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (generate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("legacy API response diverged from the PR 6 golden at line %d:\n got: %s\nwant: %s",
					i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("legacy API transcript length changed: got %d lines, want %d", len(gotLines), len(wantLines))
	}
}

// goldenRequest is one step of the golden request sequence.
type goldenRequest struct {
	method, path, contentType, body string
}

// serve sends the request to h at path (the request's own path, or its
// /v1 twin) and records the response.
func (q goldenRequest) serve(h http.Handler, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(q.method, path, strings.NewReader(q.body))
	if q.contentType != "" {
		req.Header.Set("Content-Type", q.contentType)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// goldenRequests is the fixed, fully sequential request sequence behind
// testdata/legacy_api_golden.txt, in legacy (unversioned) form.
var goldenRequests = []goldenRequest{
	{"POST", "/datasets?name=g", "text/csv", blockCSV(3, 2, 2)},
	{"POST", "/datasets?name=g", "text/csv", blockCSV(3, 2, 2)}, // duplicate -> 409
	{"GET", "/datasets", "", ""},
	{"GET", "/healthz", "", ""},
	{"GET", "/analyze?dataset=g&schema=A,B|B,C", "", ""},
	{"GET", "/analyze?dataset=g&schema=A,B;B,C", "", ""},    // raw ';' -> 400
	{"GET", "/analyze?dataset=nope&schema=A,B|B,C", "", ""}, // unknown -> 404
	{"GET", "/entropy?dataset=g&attrs=A,B", "", ""},
	{"GET", "/entropy?dataset=g&a=A&b=B&given=C", "", ""},
	{"GET", "/entropy?dataset=g", "", ""}, // needs attrs -> 400
	{"GET", "/discover?dataset=g&target=0.01&maxsep=2", "", ""},
	{"POST", "/batch", "application/json",
		`{"dataset":"g","queries":[{"kind":"entropy","attrs":["A","B"]},{"kind":"MI","a":["A"],"b":["B"]},{"kind":"fd","x":["A"],"y":["B"]},{"kind":"distinct","attrs":["C"]},{"kind":"conditional_entropy","attrs":["A"],"given":["B"]}]}`},
	{"POST", "/batch", "application/json", `{"dataset":"g","queries":[{"kind":"bogus"}]}`}, // -> 400
	{"POST", "/batch", "application/json", `{"dataset":"g"}`},                              // -> 400
	{"POST", "/datasets/g/checkpoint", "", ""},                                             // not durable -> 400
	{"POST", "/datasets/g/append", "text/csv", "91,901,9\n92,902,9\n11,101,1\n"},
	{"GET", "/entropy?dataset=g&attrs=A,B", "", ""},                          // new generation
	{"POST", "/datasets/g/append?header=1", "text/csv", "A,B,X\n93,903,9\n"}, // header mismatch -> 400
	{"POST", "/datasets/g/append", "application/json", `{"rows":[["94",904,"9"]]}`},
	{"GET", "/datasets", "", ""},
	{"DELETE", "/datasets/nope", "", ""}, // -> 404
	{"GET", "/stats", "", ""},
	{"DELETE", "/datasets/g", "", ""},
}

func maskTimestamps(s string) string {
	return regexp.MustCompile(`"registered_at": "[^"]*"`).ReplaceAllString(s, `"registered_at": "<TS>"`)
}

// TestLegacyV1Parity replays the golden sequence twice, against fresh
// services: once on the legacy routes and once on their /v1/default twins.
// Every response pair must be byte-identical (status, content type, body)
// except at the four documented differences (see NewHandler): the listing
// and the DELETE echo name the namespace under /v1, and /v1 validates batch
// and JSON append bodies against the published schemas. /healthz and /stats
// have no /v1 twin and are skipped.
func TestLegacyV1Parity(t *testing.T) {
	legacy, v1 := NewHandler(New(64)), NewHandler(New(64))

	// Difference 1, before anything exists: the legacy listing of a default
	// namespace that does not exist yet is empty, the /v1 listing is a 404.
	list := goldenRequest{method: "GET", path: "/datasets"}
	if rec := list.serve(legacy, list.path); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"datasets": []`) {
		t.Fatalf("legacy listing before the default namespace exists: %d %s", rec.Code, rec.Body)
	}
	if rec := list.serve(v1, "/v1/default/datasets"); rec.Code != http.StatusNotFound {
		t.Fatalf("/v1 listing before the default namespace exists: %d %s", rec.Code, rec.Body)
	}

	// One step the golden does not take, before its final DELETE: a JSON
	// append body with a key the append_request schema forbids, which the
	// legacy route accepts.
	last := len(goldenRequests) - 1
	steps := append(append([]goldenRequest{}, goldenRequests[:last]...),
		goldenRequest{"POST", "/datasets/g/append", "application/json", `{"rows":[["95",905,"9"]],"note":"x"}`},
		goldenRequests[last])

	batchSchema, appendSchema := apischema.BatchRequest(), apischema.AppendRequest()
	differences := 0
	for _, q := range steps {
		route, _, _ := strings.Cut(q.path, "?")
		if route == "/healthz" || route == "/stats" {
			continue
		}
		lr, vr := q.serve(legacy, q.path), q.serve(v1, "/v1/default"+q.path)
		lb, vb := maskTimestamps(lr.Body.String()), maskTimestamps(vr.Body.String())
		step := q.method + " " + q.path
		if lr.Code != vr.Code && vr.Code != http.StatusBadRequest {
			t.Fatalf("%s: legacy %d, /v1 %d", step, lr.Code, vr.Code)
		}
		switch {
		case (q.method == "GET" && route == "/datasets") || (q.method == "DELETE" && lr.Code == http.StatusOK):
			// Differences 1 and 2: the /v1 body is the legacy body plus
			// "namespace": "default".
			differences++
			var lm, vm map[string]any
			if err := json.Unmarshal([]byte(lb), &lm); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal([]byte(vb), &vm); err != nil {
				t.Fatal(err)
			}
			if vm["namespace"] != "default" || lm["namespace"] != nil {
				t.Fatalf("%s: namespace field: legacy %v, /v1 %v", step, lm["namespace"], vm["namespace"])
			}
			delete(vm, "namespace")
			if !reflect.DeepEqual(lm, vm) {
				t.Fatalf("%s: /v1 body minus namespace differs:\nlegacy %s\n/v1    %s", step, lb, vb)
			}
		case route == "/batch" && batchSchema.ValidateJSON([]byte(q.body)) != nil,
			strings.HasSuffix(route, "/append") && strings.Contains(q.contentType, "json") && appendSchema.ValidateJSON([]byte(q.body)) != nil:
			// Differences 3 and 4: /v1 rejects a body that fails its
			// published schema; the legacy route judges it on its own.
			differences++
			if vr.Code != http.StatusBadRequest || !strings.Contains(vb, "does not match /v1/schemas/") {
				t.Fatalf("%s: /v1 accepted a body its schema rejects: %d %s", step, vr.Code, vb)
			}
			if strings.Contains(lb, "/v1/schemas/") {
				t.Fatalf("%s: the legacy route validated against the schema: %s", step, lb)
			}
		default:
			if lr.Code != vr.Code || lr.Header().Get("Content-Type") != vr.Header().Get("Content-Type") || lb != vb {
				t.Fatalf("%s: legacy and /v1 differ:\nlegacy %d %s\n/v1    %d %s", step, lr.Code, lb, vr.Code, vb)
			}
		}
	}
	// Two listings, one DELETE echo, three schema-invalid batches and one
	// schema-invalid append.
	if differences != 7 {
		t.Fatalf("%d responses took a documented difference, want 7", differences)
	}
}

package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestV1Lifecycle drives the namespaced API end to end: register in two
// namespaces, list, describe, query, append, delete — with the same dataset
// name living independently in each tenant.
func TestV1Lifecycle(t *testing.T) {
	srv := httpFixture(t)

	// Registration creates the namespace implicitly.
	code, body := doReq(t, "POST", srv.URL+"/v1/tenant-a/datasets?name=block", blockCSV(3, 2, 2))
	if code != http.StatusCreated || body["rows"] != float64(12) {
		t.Fatalf("register tenant-a: %d %v", code, body)
	}
	// Same name, different namespace, different data: no conflict.
	code, body = doReq(t, "POST", srv.URL+"/v1/tenant-b/datasets?name=block", blockCSV(2, 2, 2))
	if code != http.StatusCreated || body["rows"] != float64(8) {
		t.Fatalf("register tenant-b: %d %v", code, body)
	}
	// But a duplicate within one namespace still 409s.
	if code, _ = doReq(t, "POST", srv.URL+"/v1/tenant-a/datasets?name=block", blockCSV(2, 2, 2)); code != http.StatusConflict {
		t.Fatalf("duplicate in tenant-a: %d", code)
	}

	code, body = doReq(t, "GET", srv.URL+"/v1/namespaces", "")
	if code != 200 || body["default"] != "default" {
		t.Fatalf("namespaces: %d %v", code, body)
	}
	if nss := body["namespaces"].([]any); len(nss) != 2 || nss[0] != "tenant-a" || nss[1] != "tenant-b" {
		t.Fatalf("namespaces list: %v", nss)
	}

	code, body = doReq(t, "GET", srv.URL+"/v1/tenant-a/datasets", "")
	if code != 200 || body["namespace"] != "tenant-a" {
		t.Fatalf("list tenant-a: %d %v", code, body)
	}
	if ds := body["datasets"].([]any); len(ds) != 1 || ds[0].(map[string]any)["rows"] != float64(12) {
		t.Fatalf("tenant-a datasets: %v", ds)
	}
	// Unknown namespace → 404.
	if code, _ = doReq(t, "GET", srv.URL+"/v1/tenant-c/datasets", ""); code != http.StatusNotFound {
		t.Fatalf("unknown namespace list: %d", code)
	}
	// Invalid namespace name → 400.
	if code, body = doReq(t, "GET", srv.URL+"/v1/Tenant%20A/datasets", ""); code != http.StatusBadRequest {
		t.Fatalf("invalid namespace: %d %v", code, body)
	}
	// Reserved namespace → 400 (not a dataset lookup in a tenant called
	// "namespaces").
	if code, _ = doReq(t, "GET", srv.URL+"/v1/namespaces/datasets", ""); code != http.StatusBadRequest {
		t.Fatalf("reserved namespace: %d", code)
	}

	// The self-description: attributes with distinct counts, generation,
	// measures.
	code, body = doReq(t, "GET", srv.URL+"/v1/tenant-a/datasets/block/schema", "")
	if code != 200 || body["namespace"] != "tenant-a" || body["dataset"] != "block" ||
		body["rows"] != float64(12) || body["generation"] != float64(1) {
		t.Fatalf("schema: %d %v", code, body)
	}
	attrs := body["attributes"].([]any)
	if len(attrs) != 3 {
		t.Fatalf("schema attributes: %v", attrs)
	}
	first := attrs[0].(map[string]any)
	if first["name"] != "A" || first["distinct"] != float64(6) { // blockCSV(3,2,2): 3 blocks × 2 A-values
		t.Fatalf("schema attribute A: %v", first)
	}
	if ms := body["measures"].([]any); len(ms) != 6 {
		t.Fatalf("schema measures: %v", ms)
	}
	if code, _ = doReq(t, "GET", srv.URL+"/v1/tenant-a/datasets/nope/schema", ""); code != http.StatusNotFound {
		t.Fatalf("schema of unknown dataset: %d", code)
	}

	// Query endpoints under the namespace.
	code, body = doReq(t, "GET", srv.URL+"/v1/tenant-a/entropy?dataset=block&attrs=A", "")
	if code != 200 || body["generation"] != float64(1) {
		t.Fatalf("v1 entropy: %d %v", code, body)
	}
	code, body = doReq(t, "GET", srv.URL+"/v1/tenant-a/analyze?dataset=block&schema=A,B|B,C", "")
	if code != 200 || body["n"] != float64(12) {
		t.Fatalf("v1 analyze: %d %v", code, body)
	}
	code, body = doReq(t, "GET", srv.URL+"/v1/tenant-a/discover?dataset=block&maxsep=1", "")
	if code != 200 {
		t.Fatalf("v1 discover: %d %v", code, body)
	}
	// Negative numeric parameters 400 with the parameter named.
	code, body = doReq(t, "GET", srv.URL+"/v1/tenant-a/discover?dataset=block&maxsep=-1", "")
	if code != http.StatusBadRequest || !strings.Contains(body["error"].(string), "maxsep") {
		t.Fatalf("negative maxsep: %d %v", code, body)
	}
	code, body = doReq(t, "GET", srv.URL+"/v1/tenant-a/discover?dataset=block&target=-0.5", "")
	if code != http.StatusBadRequest || !strings.Contains(body["error"].(string), "target") {
		t.Fatalf("negative target: %d %v", code, body)
	}

	// Append (JSON body, schema-validated) bumps the generation in this
	// namespace only.
	code, body = doReq(t, "POST", srv.URL+"/v1/tenant-a/datasets/block/append", `[["91","92","9"]]`)
	if code != 200 || body["appended"] != float64(1) || body["generation"] != float64(2) {
		t.Fatalf("v1 append: %d %v", code, body)
	}
	code, body = doReq(t, "GET", srv.URL+"/v1/tenant-b/entropy?dataset=block&attrs=A", "")
	if code != 200 || body["generation"] != float64(1) {
		t.Fatalf("tenant-b generation moved: %d %v", code, body)
	}

	// Per-namespace stats.
	code, body = doReq(t, "GET", srv.URL+"/v1/tenant-a/stats", "")
	if code != 200 || body["namespace"] != "tenant-a" || body["datasets"] != float64(1) ||
		body["rows"] != float64(13) || body["appends"] != float64(1) {
		t.Fatalf("tenant-a stats: %d %v", code, body)
	}
	if code, _ = doReq(t, "GET", srv.URL+"/v1/tenant-c/stats", ""); code != http.StatusNotFound {
		t.Fatalf("unknown namespace stats: %d", code)
	}

	// Delete is namespace-scoped.
	code, body = doReq(t, "DELETE", srv.URL+"/v1/tenant-a/datasets/block", "")
	if code != 200 || body["removed"] != "block" {
		t.Fatalf("v1 delete: %d %v", code, body)
	}
	if code, _ = doReq(t, "GET", srv.URL+"/v1/tenant-b/datasets/block/schema", ""); code != 200 {
		t.Fatalf("tenant-b dataset gone after tenant-a delete: %d", code)
	}
}

// TestV1LegacyAliasing pins the tentpole invariant: the unversioned routes
// and the /v1/default/... routes are the same namespace seen twice.
func TestV1LegacyAliasing(t *testing.T) {
	srv := httpFixture(t)
	if code, _ := doReq(t, "POST", srv.URL+"/datasets?name=d", blockCSV(2, 2, 2)); code != http.StatusCreated {
		t.Fatal("legacy register failed")
	}
	// Visible through the v1 surface in the default namespace...
	code, body := doReq(t, "GET", srv.URL+"/v1/default/datasets", "")
	if code != 200 || len(body["datasets"].([]any)) != 1 {
		t.Fatalf("v1 default list: %d %v", code, body)
	}
	// ...and an append through v1 is seen by the legacy route.
	if code, _ := doReq(t, "POST", srv.URL+"/v1/default/datasets/d/append", `[["91","92","9"]]`); code != 200 {
		t.Fatal("v1 append failed")
	}
	code, body = doReq(t, "GET", srv.URL+"/entropy?dataset=d&attrs=A", "")
	if code != 200 || body["generation"] != float64(2) {
		t.Fatalf("legacy entropy after v1 append: %d %v", code, body)
	}
	// Deleting through legacy removes it from v1.
	if code, _ := doReq(t, "DELETE", srv.URL+"/datasets/d", ""); code != 200 {
		t.Fatal("legacy delete failed")
	}
	code, body = doReq(t, "GET", srv.URL+"/v1/default/datasets", "")
	if code != 200 || len(body["datasets"].([]any)) != 0 {
		t.Fatalf("v1 default list after delete: %d %v", code, body)
	}
}

// TestV1BatchSchemaValidation is the acceptance check: /v1 batch bodies that
// violate the published schema 400 with the offending field named.
func TestV1BatchSchemaValidation(t *testing.T) {
	srv := httpFixture(t)
	if code, _ := doReq(t, "POST", srv.URL+"/v1/t/datasets?name=d", blockCSV(2, 2, 2)); code != http.StatusCreated {
		t.Fatal("register failed")
	}

	// A valid body works.
	code, body := doReq(t, "POST", srv.URL+"/v1/t/batch",
		`{"dataset":"d","queries":[{"kind":"entropy","attrs":["A"]},{"kind":"fd","x":["A"],"y":["B"]}]}`)
	if code != 200 || len(body["results"].([]any)) != 2 {
		t.Fatalf("valid v1 batch: %d %v", code, body)
	}

	for _, c := range []struct{ body, wantField string }{
		{`{"queries":[{"kind":"entropy","attrs":["A"]}]}`, "dataset"},
		{`{"dataset":"d","queries":[{"kind":"ENTROPY","attrs":["A"]}]}`, "queries[0].kind"},
		{`{"dataset":"d","queries":[{"kind":"entropy","attrs":["A"],"bogus":1}]}`, "queries[0].bogus"},
		{`{"dataset":"d","queries":[{"kind":"entropy","attrs":["A"]},{"kind":"mi","a":"A","b":["B"]}]}`, "queries[1].a"},
		{`{"dataset":"d","queries":[]}`, "queries"},
	} {
		code, body := doReq(t, "POST", srv.URL+"/v1/t/batch", c.body)
		if code != http.StatusBadRequest {
			t.Fatalf("body %s: code %d", c.body, code)
		}
		msg := body["error"].(string)
		if !strings.Contains(msg, c.wantField) || !strings.Contains(msg, "/v1/schemas/batch_request") {
			t.Fatalf("body %s: error %q does not name %q and the schema", c.body, msg, c.wantField)
		}
	}

	// The legacy /batch stays lenient for old clients: uppercase kinds are
	// normalized, not rejected.
	code, body = doReq(t, "POST", srv.URL+"/batch", `{"dataset":"d","queries":[{"kind":"ENTROPY","attrs":["A"]}]}`)
	if code != http.StatusNotFound { // "d" lives in namespace t, not default
		t.Fatalf("legacy batch hit another tenant's dataset: %d %v", code, body)
	}
	if code, _ := doReq(t, "POST", srv.URL+"/datasets?name=d", blockCSV(2, 2, 2)); code != http.StatusCreated {
		t.Fatal("legacy register failed")
	}
	code, body = doReq(t, "POST", srv.URL+"/batch", `{"dataset":"d","queries":[{"kind":"ENTROPY","attrs":["A"]}]}`)
	if code != 200 {
		t.Fatalf("legacy lenient batch: %d %v", code, body)
	}
}

// TestV1SchemasEndpoint: the published JSON Schema documents are served and
// self-identified.
func TestV1SchemasEndpoint(t *testing.T) {
	srv := httpFixture(t)
	code, body := doReq(t, "GET", srv.URL+"/v1/schemas", "")
	if code != 200 {
		t.Fatalf("schemas index: %d %v", code, body)
	}
	names := body["schemas"].([]any)
	if len(names) != 5 {
		t.Fatalf("schemas index: %v", names)
	}
	for _, n := range names {
		code, doc := doReq(t, "GET", srv.URL+"/v1/schemas/"+n.(string), "")
		if code != 200 || doc["$id"] != "/v1/schemas/"+n.(string) {
			t.Fatalf("schema %v: %d %v", n, code, doc)
		}
	}
	if code, _ := doReq(t, "GET", srv.URL+"/v1/schemas/nope", ""); code != http.StatusNotFound {
		t.Fatalf("unknown schema: %d", code)
	}
}

// TestHTTPJSONFallback: unmatched routes and wrong methods answer with the
// shared JSON error envelope (and Allow on 405), never a text/plain page.
func TestHTTPJSONFallback(t *testing.T) {
	srv := httpFixture(t)

	code, body := doReq(t, "GET", srv.URL+"/no/such/route", "")
	if code != http.StatusNotFound || !strings.Contains(body["error"].(string), "no route") {
		t.Fatalf("404 fallback: %d %v", code, body)
	}

	resp, err := http.Post(srv.URL+"/healthz", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("405 fallback: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "json") {
		t.Fatalf("405 fallback content type: %q", ct)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
		t.Fatalf("405 fallback Allow: %q", allow)
	}

	// The schemas mux shares the fallback.
	code, body = doReq(t, "DELETE", srv.URL+"/v1/schemas/batch_request", "")
	if code != http.StatusMethodNotAllowed || body["error"] == nil {
		t.Fatalf("schemas 405 fallback: %d %v", code, body)
	}
}

// TestV1QuotaEnforcement is the acceptance check for typed quota errors:
// over-quota registrations and appends 429 without side effects.
func TestV1QuotaEnforcement(t *testing.T) {
	s := New(32)
	s.Registry().SetDefaultQuotas(Quotas{MaxDatasets: 2, MaxRows: 30})
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(srv.Close)

	if code, _ := doReq(t, "POST", srv.URL+"/v1/q/datasets?name=a", blockCSV(2, 2, 2)); code != http.StatusCreated {
		t.Fatal("register a failed")
	}
	// Rows quota: 8 used, 30 allowed; a 24-row dataset would reach 32.
	code, body := doReq(t, "POST", srv.URL+"/v1/q/datasets?name=big", blockCSV(3, 2, 4))
	if code != http.StatusTooManyRequests || !strings.Contains(body["error"].(string), "rows") {
		t.Fatalf("rows quota on register: %d %v", code, body)
	}
	// The rejected registration must not have leaked its reservation.
	code, body = doReq(t, "GET", srv.URL+"/v1/q/stats", "")
	if code != 200 || body["rows"] != float64(8) {
		t.Fatalf("rows after rejected register: %d %v", code, body)
	}

	if code, _ = doReq(t, "POST", srv.URL+"/v1/q/datasets?name=b", blockCSV(2, 2, 2)); code != http.StatusCreated {
		t.Fatal("register b failed")
	}
	// Dataset-count quota.
	code, body = doReq(t, "POST", srv.URL+"/v1/q/datasets?name=c", blockCSV(2, 2, 2))
	if code != http.StatusTooManyRequests || !strings.Contains(body["error"].(string), "datasets") {
		t.Fatalf("dataset quota: %d %v", code, body)
	}

	// Appends: 16 rows used, a 15-row batch would reach 31 > 30 → 429 and
	// the dataset is untouched (generation and rows unchanged).
	rows := make([]string, 15)
	for i := range rows {
		rows[i] = fmt.Sprintf(`["x%d","y%d","z"]`, i, i)
	}
	code, body = doReq(t, "POST", srv.URL+"/v1/q/datasets/a/append", "["+strings.Join(rows, ",")+"]")
	if code != http.StatusTooManyRequests || !strings.Contains(body["error"].(string), "rows") {
		t.Fatalf("rows quota on append: %d %v", code, body)
	}
	code, body = doReq(t, "GET", srv.URL+"/v1/q/datasets/a/schema", "")
	if code != 200 || body["rows"] != float64(8) || body["generation"] != float64(1) {
		t.Fatalf("dataset a after rejected append: %d %v", code, body)
	}
	// A batch that fits (14 rows → exactly 30) lands.
	code, body = doReq(t, "POST", srv.URL+"/v1/q/datasets/a/append", "["+strings.Join(rows[:14], ",")+"]")
	if code != 200 || body["appended"] != float64(14) {
		t.Fatalf("fitting append: %d %v", code, body)
	}
	// Removing a dataset returns its rows to the budget.
	if code, _ = doReq(t, "DELETE", srv.URL+"/v1/q/datasets/b", ""); code != 200 {
		t.Fatal("delete b failed")
	}
	code, body = doReq(t, "GET", srv.URL+"/v1/q/stats", "")
	if code != 200 || body["rows"] != float64(22) || body["datasets"] != float64(1) {
		t.Fatalf("stats after delete: %d %v", code, body)
	}
}

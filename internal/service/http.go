package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// maxUploadBytes caps a POST /datasets body. 512 MiB of CSV is far beyond
// the in-memory relation sizes the analysis engine targets.
const maxUploadBytes = 512 << 20

// NewHandler returns the HTTP API of the analysis service. Every dataset
// route is written once, in registerV1's route table, and served under the
// namespace named in its path:
//
//	GET    /v1/namespaces                 list namespaces
//	GET    /v1/{ns}/stats                 one namespace's counters and quotas
//	GET    /v1/{ns}/datasets              list the namespace's datasets
//	POST   /v1/{ns}/datasets?name=X[&noheader=1]  register the CSV request body
//	GET    /v1/{ns}/datasets/{name}/schema  self-description: attributes with
//	                                      distinct counts, rows, generation,
//	                                      available measures
//	POST   /v1/{ns}/datasets/{name}/append[?header=1]  append rows (CSV body,
//	                                      or JSON rows with Content-Type:
//	                                      application/json)
//	POST   /v1/{ns}/datasets/{name}/checkpoint  fold the dataset into a fresh
//	                                      durable checkpoint and compact its WAL
//	DELETE /v1/{ns}/datasets/{name}       deregister a dataset
//	GET    /v1/{ns}/datasets/{name}/snapshot, .../wal?from=G  replication export
//	GET    /v1/{ns}/analyze?dataset=X&schema=A,B|B,C   ('|' or %3B between bags)
//	GET    /v1/{ns}/discover?dataset=X[&target=0.01][&maxsep=1]
//	GET    /v1/{ns}/entropy?dataset=X&attrs=A,B[&given=C]
//	GET    /v1/{ns}/entropy?dataset=X&a=A&b=B[&given=C]
//	POST   /v1/{ns}/batch                 {"dataset": X, "queries": [...]} —
//	                                      many entropy/mi/cmi/fd/distinct
//	                                      queries against one snapshot
//	GET    /v1/schemas                    published JSON Schema names
//	GET    /v1/schemas/{name}             one published JSON Schema document
//
// The nine routes that predate /v1 (GET and POST /datasets, append,
// checkpoint, DELETE, analyze, discover, entropy and batch) are also served
// at their bare path, without the /v1/{ns} prefix, in the default namespace.
// Such a legacy alias runs the same handler and differs from its /v1 twin at
// exactly four points, each a check of legacyRoute:
//
//   - GET /datasets omits "namespace", and lists [] with 200 when the
//     default namespace does not exist yet (/v1 answers 404);
//   - DELETE /datasets/{name} omits "namespace" from its echo;
//   - POST /batch bodies are not validated against the JSON Schema;
//   - JSON append bodies are not validated against the JSON Schema.
//
// Two more unversioned routes have no /v1 twin:
//
//	GET    /healthz                      liveness probe
//	GET    /stats                        service-wide request counters
//
// Every response is JSON, and every analysis response echoes the dataset
// generation it was computed against (appends bump the generation). Errors
// come back as {"error": "..."} with 400 (bad request/ingestion), 404
// (unknown dataset, namespace, or route), 405 (wrong method for a known
// route, with Allow set), 409 (duplicate dataset name), or 429 (namespace
// quota exceeded) — unmatched routes and wrong methods share the same JSON
// envelope as every other error.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	registerV1(mux, s)
	// /v1/schemas/{name} would conflict with the /v1/{ns}/... wildcards on
	// paths like /v1/schemas/datasets, so the schema documents live on their
	// own mux that the wrapper consults first; the wrapper also converts
	// unmatched routes and wrong methods into the shared JSON error envelope.
	return &apiHandler{api: mux, schemas: newSchemasMux()}
}

// schemaParam extracts the schema query parameter, working around (and
// documenting, in this one place) a net/http limitation: a raw ';' in a
// query string is treated as a separator and *silently dropped* by
// net/url.ParseQuery, so "schema=A,B;B,C" would reach the handler as the
// truncated "A,B" and fail later with a confusing coverage error. Any raw
// ';' anywhere in the query therefore gets an immediate, actionable 400;
// well-formed requests separate schema bags with '|' (schema=A,C|B,C) or
// URL-encode the ';' as %3B, both of which are normalized to the CLI's ';'
// syntax here.
func schemaParam(r *http.Request) (string, error) {
	if strings.Contains(r.URL.RawQuery, ";") {
		return "", fmt.Errorf("service: raw ';' in a query string is dropped by net/http before the schema can be parsed; separate schema bags with '|' (schema=A,C|B,C) or URL-encode the ';' as %%3B")
	}
	return strings.ReplaceAll(r.URL.Query().Get("schema"), "|", ";"), nil
}

// statusFor maps service errors onto HTTP statuses: unknown datasets are
// 404, quota rejections are 429 (the request was fine, the tenant is over
// its allowance), durable-store failures are the server's fault (500),
// everything else a caller can fix is 400.
func statusFor(err error) int {
	if errors.Is(err, ErrUnknownDataset) {
		return http.StatusNotFound
	}
	if errors.Is(err, ErrQuotaExceeded) {
		return http.StatusTooManyRequests
	}
	if errors.Is(err, ErrNotPrimary) {
		// 421 Misdirected Request: the request is fine, this node is a
		// read-only follower — retry against the primary named in the
		// X-Ajdloss-Primary header (set by writeError).
		return http.StatusMisdirectedRequest
	}
	if errors.Is(err, ErrStore) {
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

// decodeJSONRows parses a JSON append body: either a bare array of rows or
// {"rows": [...]}, where each row is an array of strings and/or numbers
// (numbers keep their literal text, so 1 and 1.0 are distinct values exactly
// as they would be in CSV).
func decodeJSONRows(data []byte) ([][]string, error) {
	var rows [][]any
	if trimmed := bytes.TrimLeft(data, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '{' {
		var wrapped struct {
			Rows [][]any `json:"rows"`
		}
		if err := unmarshalNumbers(data, &wrapped); err != nil {
			return nil, err
		}
		if wrapped.Rows == nil {
			// A misspelled or missing key must not read as an empty batch —
			// the client would see 200 {"appended":0} and believe it landed.
			return nil, fmt.Errorf(`JSON object body must have a "rows" array`)
		}
		rows = wrapped.Rows
	} else {
		if err := unmarshalNumbers(data, &rows); err != nil {
			return nil, err
		}
		if rows == nil {
			// A literal null (an uninitialized client-side variable) must
			// not read as an empty batch that "landed".
			return nil, fmt.Errorf("JSON append body is null, want an array of rows")
		}
	}
	out := make([][]string, len(rows))
	for i, cells := range rows {
		rec := make([]string, len(cells))
		for j, c := range cells {
			switch v := c.(type) {
			case string:
				rec[j] = v
			case json.Number:
				rec[j] = v.String()
			default:
				return nil, fmt.Errorf("row %d, field %d: want string or number, got %T", i+1, j+1, c)
			}
		}
		out[i] = rec
	}
	return out, nil
}

// unmarshalNumbers is json.Unmarshal with UseNumber, so numeric cells keep
// their literal text instead of round-tripping through float64. Trailing
// content after the first JSON value is an error — a second concatenated
// batch must not be silently dropped.
func unmarshalNumbers(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON body")
	}
	return nil
}

// queryBool parses a boolean query parameter; absent means false.
func queryBool(s string) (bool, error) {
	if s == "" {
		return false, nil
	}
	v, err := strconv.ParseBool(s)
	if err != nil {
		return false, fmt.Errorf("service: bad boolean parameter %q", s)
	}
	return v, nil
}

// writeJSON answers status with v as indented JSON. v is encoded before the
// status is written, so a value JSON cannot encode (a NaN or an infinity)
// answers 500 with a JSON error instead of status with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		status = http.StatusInternalServerError
		buf.Reset()
		_ = enc.Encode(map[string]string{"error": "encode response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

func writeError(w http.ResponseWriter, status int, err error) {
	// A follower's write rejection names its primary in a header as well as
	// the body, so clients (and the fan-out router) can redirect without
	// parsing the error string.
	var np *NotPrimaryError
	if errors.As(err, &np) {
		w.Header().Set("X-Ajdloss-Primary", np.Primary)
		// The body carries the primary too (the published redirect_error
		// schema), for clients that only see decoded JSON.
		writeJSON(w, status, map[string]string{"error": err.Error(), "primary": np.Primary})
		return
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// queryList splits a comma-separated attribute list; empty input is nil.
func queryList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// queryFloat parses a finite, non-negative numeric query parameter; absent
// means def. The parameter name is part of every error message — a request
// with several numeric parameters must not make the caller guess which one
// was bad. Negatives are rejected here, once, instead of surfacing later as
// a confusing domain error (a negative discovery target or separator budget
// has no meaning anywhere in the API). NaN and ±Inf, which ParseFloat
// accepts, are rejected too: JSON cannot encode them in the answer.
func queryFloat(name, s string, def float64) (float64, error) {
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("service: bad numeric parameter %s=%q", name, s)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("service: parameter %s must be finite, got %s", name, s)
	}
	if v < 0 {
		return 0, fmt.Errorf("service: parameter %s must be non-negative, got %s", name, s)
	}
	return v, nil
}

// queryInt parses a non-negative integer query parameter; absent means def.
// See queryFloat for why the name is threaded through and negatives fail.
func queryInt(name, s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("service: bad integer parameter %s=%q", name, s)
	}
	if v < 0 {
		return 0, fmt.Errorf("service: parameter %s must be non-negative, got %d", name, v)
	}
	return v, nil
}

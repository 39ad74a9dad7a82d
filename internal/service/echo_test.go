package service

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// echoCSV is a small 6-attribute dataset X1..X6 with dependent columns, so
// conditional entropies are non-trivial.
func echoCSV() string {
	var b strings.Builder
	b.WriteString("X1,X2,X3,X4,X5,X6\n")
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%d\n", i%3, i%4, i%5, (i/3)%4, (i*7)%5, i%6)
	}
	return b.String()
}

// TestCachedEntropyEchoesOwnOrder: two requests that differ only in the
// order of their given lists share one cache key. The second is a cache hit,
// yet each caller must see its own spelling echoed, with bit-identical
// numbers.
func TestCachedEntropyEchoesOwnOrder(t *testing.T) {
	s := New(32)
	if _, err := s.Registry().RegisterIn("default", "e", strings.NewReader(echoCSV()), true); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(srv.Close)
	code, first := doReq(t, "GET", srv.URL+"/entropy?dataset=e&attrs=X1&given=X2,X5", "")
	if code != http.StatusOK {
		t.Fatalf("first: %d %v", code, first)
	}
	hits := s.Stats().CacheHits
	code, second := doReq(t, "GET", srv.URL+"/entropy?dataset=e&attrs=X1&given=X5,X2", "")
	if code != http.StatusOK {
		t.Fatalf("second: %d %v", code, second)
	}
	if got := s.Stats().CacheHits; got != hits+1 {
		t.Fatalf("second request was not a cache hit (hits %d -> %d)", hits, got)
	}
	if !reflect.DeepEqual(first["given"], []any{"X2", "X5"}) || !reflect.DeepEqual(second["given"], []any{"X5", "X2"}) {
		t.Fatalf("echoed given: first %v, second %v", first["given"], second["given"])
	}
	for _, f := range []string{"nats", "bits"} {
		a, b := first[f].(float64), second[f].(float64)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s differs: %v vs %v", f, a, b)
		}
	}
}

// TestCachedBatchEchoesOwnQueries: "MI" and "mi" normalize to one cache key;
// each batch caller must get its own query spelling back, and the answers
// must be bit-identical.
func TestCachedBatchEchoesOwnQueries(t *testing.T) {
	s := New(32)
	if _, err := s.Registry().RegisterIn("default", "e", strings.NewReader(echoCSV()), true); err != nil {
		t.Fatal(err)
	}
	upper := []BatchQuery{{Kind: "MI", A: []string{"X1"}, B: []string{"X2"}}, {Kind: "entropy", Attrs: []string{"X3", "X1"}}}
	lower := []BatchQuery{{Kind: "mi", A: []string{"X1"}, B: []string{"X2"}}, {Kind: "entropy", Attrs: []string{"X1", "X3"}}}
	first, err := s.BatchIn("default", "e", upper)
	if err != nil {
		t.Fatal(err)
	}
	hits := s.Stats().CacheHits
	second, err := s.BatchIn("default", "e", lower)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().CacheHits; got != hits+1 {
		t.Fatalf("second batch was not a cache hit (hits %d -> %d)", hits, got)
	}
	// A repeat of the first spelling, now served from the entry the second
	// spelling's view was cut from, must still echo the first spelling.
	again, err := s.BatchIn("default", "e", upper)
	if err != nil {
		t.Fatal(err)
	}
	for i := range upper {
		if !reflect.DeepEqual(first.Results[i].Query, upper[i]) || !reflect.DeepEqual(again.Results[i].Query, upper[i]) {
			t.Fatalf("query %d: echoed %+v / %+v, want %+v", i, first.Results[i].Query, again.Results[i].Query, upper[i])
		}
		if !reflect.DeepEqual(second.Results[i].Query, lower[i]) {
			t.Fatalf("query %d: echoed %+v, want %+v", i, second.Results[i].Query, lower[i])
		}
		if math.Float64bits(*first.Results[i].Nats) != math.Float64bits(*second.Results[i].Nats) {
			t.Fatalf("query %d: nats %v vs %v", i, *first.Results[i].Nats, *second.Results[i].Nats)
		}
	}
}

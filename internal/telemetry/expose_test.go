package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"apecache/internal/httplite"
)

func testMux() (*Telemetry, *httplite.Mux) {
	tel := New(nil)
	mux := httplite.NewMux()
	tel.Register(mux)
	return tel, mux
}

func get(mux *httplite.Mux, path string) *httplite.Response {
	return mux.ServeHTTP(httplite.NewRequest("GET", "test", path))
}

func TestMetricsEndpoint(t *testing.T) {
	tel, mux := testMux()
	tel.Metrics.Counter("hits_total", "hits").Add(7)
	resp := get(mux, "/metrics")
	if resp.Status != 200 {
		t.Fatalf("status %d", resp.Status)
	}
	if !strings.Contains(resp.Get("content-type"), "version=0.0.4") {
		t.Errorf("content-type %q", resp.Get("content-type"))
	}
	if !strings.Contains(string(resp.Body), "hits_total 7") {
		t.Errorf("body missing counter:\n%s", resp.Body)
	}
}

func TestVarsEndpoint(t *testing.T) {
	tel, mux := testMux()
	tel.Metrics.Gauge("depth", "").Set(3)
	resp := get(mux, "/debug/vars")
	if resp.Status != 200 {
		t.Fatalf("status %d", resp.Status)
	}
	var parsed map[string]any
	if err := json.Unmarshal(resp.Body, &parsed); err != nil {
		t.Fatalf("vars output is not JSON: %v\n%s", err, resp.Body)
	}
	inner, ok := parsed["apecache"].(map[string]any)
	if !ok {
		t.Fatalf("no apecache section: %v", parsed)
	}
	if inner["depth"] != 3.0 {
		t.Errorf("depth = %v", inner["depth"])
	}
	if _, ok := parsed["memstats"]; !ok {
		t.Error("stdlib expvar memstats missing")
	}
}

func TestPprofEndpoints(t *testing.T) {
	_, mux := testMux()
	resp := get(mux, "/debug/pprof/")
	if resp.Status != 200 || !strings.Contains(string(resp.Body), "goroutine") {
		t.Errorf("index: status=%d body=%q", resp.Status, resp.Body)
	}
	resp = get(mux, "/debug/pprof/goroutine?debug=1")
	if resp.Status != 200 || !strings.Contains(string(resp.Body), "goroutine profile") {
		t.Errorf("goroutine profile: status=%d", resp.Status)
	}
	resp = get(mux, "/debug/pprof/heap")
	if resp.Status != 200 || len(resp.Body) == 0 {
		t.Errorf("heap profile: status=%d len=%d", resp.Status, len(resp.Body))
	}
	if resp := get(mux, "/debug/pprof/nosuch"); resp.Status != 404 {
		t.Errorf("unknown profile: status=%d", resp.Status)
	}
}

func TestTraceEndpoint(t *testing.T) {
	tel, mux := testMux()
	id := tel.Tracer.NewTrace()
	base := time.Unix(50, 0)
	tel.Span(id, "dns-lookup", "client", base, time.Millisecond, "")
	tel.Span(id, "delegation", "ap", base.Add(time.Millisecond), time.Millisecond, "url=http://a/b")

	resp := get(mux, "/trace?id="+id.String())
	if resp.Status != 200 {
		t.Fatalf("status %d: %s", resp.Status, resp.Body)
	}
	var spans []Span
	if err := json.Unmarshal(resp.Body, &spans); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(spans) != 2 || spans[0].Name != "dns-lookup" || spans[1].Name != "delegation" {
		t.Errorf("spans = %+v", spans)
	}

	resp = get(mux, "/trace")
	var sums []TraceSummary
	if err := json.Unmarshal(resp.Body, &sums); err != nil {
		t.Fatalf("bad index JSON: %v", err)
	}
	if len(sums) != 1 || sums[0].Spans != 2 {
		t.Errorf("summaries = %+v", sums)
	}

	if resp := get(mux, "/trace?id=ffffffffffffffff"); resp.Status != 404 {
		t.Errorf("missing trace: status=%d", resp.Status)
	}
	if resp := get(mux, "/trace?id=xyz"); resp.Status != 400 {
		t.Errorf("bad id: status=%d", resp.Status)
	}
}

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
	for _, path := range []string{"/debug/pprof/goroutine?debug=1", "/debug/pprof/goroutine?x=y&debug=1"} {
		resp = get(mux, path)
		if resp.Status != 200 || !strings.Contains(string(resp.Body), "goroutine profile") || resp.Get("content-type") != "" {
			t.Errorf("%s: status=%d content-type=%q, want the text form", path, resp.Status, resp.Get("content-type"))
		}
	}
	resp = get(mux, "/debug/pprof/heap")
	if resp.Status != 200 || len(resp.Body) == 0 || resp.Get("content-type") != "application/octet-stream" {
		t.Errorf("heap profile: status=%d len=%d content-type=%q", resp.Status, len(resp.Body), resp.Get("content-type"))
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

	for _, path := range []string{"/trace?id=" + id.String(), "/trace?x=1&id=" + id.String()} {
		resp := get(mux, path)
		if resp.Status != 200 {
			t.Fatalf("%s: status %d: %s", path, resp.Status, resp.Body)
		}
		var spans []Span
		if err := json.Unmarshal(resp.Body, &spans); err != nil {
			t.Fatalf("%s: bad JSON: %v", path, err)
		}
		if len(spans) != 2 || spans[0].Name != "dns-lookup" || spans[1].Name != "delegation" {
			t.Errorf("%s: spans = %+v", path, spans)
		}
	}

	for _, path := range []string{"/trace", "/trace?id="} {
		var sums []TraceSummary
		if err := json.Unmarshal(get(mux, path).Body, &sums); err != nil {
			t.Fatalf("%s: bad index JSON: %v", path, err)
		}
		if len(sums) != 1 || sums[0].Spans != 2 {
			t.Errorf("%s: summaries = %+v", path, sums)
		}
	}

	if resp := get(mux, "/trace?id=ffffffffffffffff"); resp.Status != 404 {
		t.Errorf("missing trace: status=%d", resp.Status)
	}
	if resp := get(mux, "/trace?id=xyz"); resp.Status != 400 || string(resp.Body) != "bad trace id xyz" {
		t.Errorf("bad id: status=%d body=%q", resp.Status, resp.Body)
	}
}

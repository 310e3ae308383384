package telemetry

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"net/url"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"apecache/internal/httplite"
)

// Register mounts the observability endpoints on mux:
//
//	/metrics       Prometheus text exposition (version 0.0.4)
//	/debug/vars    expvar JSON (stdlib vars + the registry's samples)
//	/debug/pprof/  runtime profiles (index, named profiles, ?seconds CPU)
//	/trace         span store: ?id=<hex> for one trace, bare for an index
//
// Every daemon (aped, edged, the wicache controller) calls this on the
// same mux that serves its application routes.
func (t *Telemetry) Register(mux *httplite.Mux) {
	if t == nil {
		return
	}
	mux.HandleFunc("/metrics", t.handleMetrics)
	mux.HandleFunc("/debug/vars", t.handleVars)
	mux.HandleFunc("/debug/pprof", handlePprof)
	mux.HandleFunc("/trace", t.handleTrace)
}

func (t *Telemetry) handleMetrics(req *httplite.Request) *httplite.Response {
	var buf bytes.Buffer
	if err := t.Metrics.WritePrometheus(&buf); err != nil {
		return httplite.NewResponse(500, []byte(err.Error()))
	}
	resp := httplite.NewResponse(200, buf.Bytes())
	resp.Set("content-type", "text/plain; version=0.0.4; charset=utf-8")
	return resp
}

// handleVars mirrors the stdlib expvar handler (including the process
// vars expvar publishes itself, like cmdline and memstats) and adds the
// registry's current samples under the "apecache" key. The registry is
// rendered inline rather than expvar.Publish'd because several daemons
// share one process under simnet and Publish panics on duplicates.
func (t *Telemetry) handleVars(req *httplite.Request) *httplite.Response {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\n")
	expvar.Do(func(kv expvar.KeyValue) {
		fmt.Fprintf(&buf, "%q: %s,\n", kv.Key, kv.Value)
	})
	samples, err := json.Marshal(t.Metrics.Expand())
	if err != nil {
		samples = []byte("{}")
	}
	fmt.Fprintf(&buf, "%q: %s\n}\n", "apecache", samples)
	resp := httplite.NewResponse(200, buf.Bytes())
	resp.Set("content-type", "application/json; charset=utf-8")
	return resp
}

// pprofProfiles are the named runtime profiles served under
// /debug/pprof/<name>.
var pprofProfiles = []string{"allocs", "block", "goroutine", "heap", "mutex", "threadcreate"}

// handlePprof serves runtime profiles over httplite. net/http/pprof
// wants an http.ResponseWriter, so this is a small re-implementation on
// top of runtime/pprof: the index, the named profiles (?debug=1 for
// text form), and ?seconds CPU profiling. CPU profiling blocks on wall
// time and is meant for realnet daemons.
func handlePprof(req *httplite.Request) *httplite.Response {
	u, err := url.Parse(req.Path)
	if err != nil {
		return httplite.NewResponse(400, []byte("bad path"))
	}
	name := strings.TrimPrefix(strings.TrimPrefix(u.Path, "/debug/pprof"), "/")
	q := u.Query()
	switch name {
	case "":
		var buf bytes.Buffer
		buf.WriteString("apecache pprof\n\nprofiles:\n")
		for _, p := range pprof.Profiles() {
			fmt.Fprintf(&buf, "%d\t%s\n", p.Count(), p.Name())
		}
		buf.WriteString("\nprofile?seconds=N\tCPU profile\n")
		return httplite.NewResponse(200, buf.Bytes())
	case "cmdline":
		return httplite.NewResponse(200, []byte("apecache"))
	case "profile":
		seconds, _ := strconv.Atoi(q.Get("seconds"))
		if seconds <= 0 {
			seconds = 1
		}
		if seconds > 30 {
			seconds = 30
		}
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return httplite.NewResponse(500, []byte(err.Error()))
		}
		time.Sleep(time.Duration(seconds) * time.Second)
		pprof.StopCPUProfile()
		resp := httplite.NewResponse(200, buf.Bytes())
		resp.Set("content-type", "application/octet-stream")
		return resp
	default:
		p := pprof.Lookup(name)
		if p == nil {
			return httplite.NewResponse(404, []byte("unknown profile "+name))
		}
		debug := 0
		if q.Get("debug") != "" {
			debug, _ = strconv.Atoi(q.Get("debug"))
		}
		var buf bytes.Buffer
		if err := p.WriteTo(&buf, debug); err != nil {
			return httplite.NewResponse(500, []byte(err.Error()))
		}
		resp := httplite.NewResponse(200, buf.Bytes())
		if debug == 0 {
			resp.Set("content-type", "application/octet-stream")
		}
		return resp
	}
}

func (t *Telemetry) handleTrace(req *httplite.Request) *httplite.Response {
	u, err := url.Parse(req.Path)
	if err != nil {
		return httplite.NewResponse(400, []byte("bad path"))
	}
	idStr := u.Query().Get("id")
	var body []byte
	if idStr == "" {
		body, err = json.MarshalIndent(t.Tracer.Traces(), "", "  ")
	} else {
		id, ok := ParseTraceID(idStr)
		if !ok {
			return httplite.NewResponse(400, []byte("bad trace id "+idStr))
		}
		spans := t.Tracer.Get(id)
		if len(spans) == 0 {
			return httplite.NewResponse(404, []byte("no spans for trace "+id.String()))
		}
		body, err = json.MarshalIndent(spans, "", "  ")
	}
	if err != nil {
		return httplite.NewResponse(500, []byte(err.Error()))
	}
	resp := httplite.NewResponse(200, body)
	resp.Set("content-type", "application/json; charset=utf-8")
	return resp
}

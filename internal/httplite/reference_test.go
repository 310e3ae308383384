package httplite

import (
	"bytes"
	"fmt"
	"io"
	"net/url"
	"strings"
	"testing"
)

// This file keeps the fmt-based head writers that the append-based ones
// in codec.go replaced, verbatim apart from names, as the reference the
// table test below holds the production writers to: same bytes, same
// number of Writes.

func referenceWriteRequest(w io.Writer, req *Request) error {
	var b strings.Builder
	path := req.Path
	if path == "" {
		path = "/"
	}
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\n", req.Method, path)
	if req.Host != "" {
		fmt.Fprintf(&b, "host: %s\r\n", req.Host)
	}
	for k, v := range req.Header {
		if k == "host" || k == "content-length" {
			continue
		}
		fmt.Fprintf(&b, "%s: %s\r\n", k, v)
	}
	fmt.Fprintf(&b, "content-length: %d\r\n\r\n", len(req.Body))
	if _, err := io.WriteString(w, b.String()); err != nil {
		return fmt.Errorf("httplite: write request head: %w", err)
	}
	if len(req.Body) > 0 {
		if _, err := w.Write(req.Body); err != nil {
			return fmt.Errorf("httplite: write request body: %w", err)
		}
	}
	return nil
}

func referenceWriteResponse(w io.Writer, resp *Response) error {
	var b strings.Builder
	fmt.Fprintf(&b, "HTTP/1.1 %d %s\r\n", resp.Status, statusText(resp.Status))
	for k, v := range resp.Header {
		if k == "content-length" {
			continue
		}
		fmt.Fprintf(&b, "%s: %s\r\n", k, v)
	}
	fmt.Fprintf(&b, "content-length: %d\r\n\r\n", len(resp.Body))
	if _, err := io.WriteString(w, b.String()); err != nil {
		return fmt.Errorf("httplite: write response head: %w", err)
	}
	if len(resp.Body) > 0 {
		if _, err := w.Write(resp.Body); err != nil {
			return fmt.Errorf("httplite: write response body: %w", err)
		}
	}
	return nil
}

// writeLog records every Write separately, so a test sees both the bytes
// and how they were split.
type writeLog struct{ writes [][]byte }

func (l *writeLog) Write(p []byte) (int, error) {
	l.writes = append(l.writes, bytes.Clone(p))
	return len(p), nil
}

// TestWritersMatchReference: with at most one header (so map order
// cannot differ between the two runs) the writers produce the reference's
// bytes in the reference's Writes.
func TestWritersMatchReference(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 70<<10)
	long := strings.Repeat("v", 70<<10) // a head past the pooled-buffer bound
	requests := []*Request{
		NewRequest("GET", "ap", "/cache?u=http%3A%2F%2Fapi.example%2Fobj&app=demo"),
		NewRequest("GET", "", ""),
		{Method: "POST", Host: "edge:8080", Path: "/delegate", Header: map[string]string{"x-ape-ttl": "30"}, Body: []byte("http://api.example/obj")},
		{Method: "GET", Path: "/", Header: map[string]string{"host": "ignored"}},
		{Method: "PUT", Host: "h", Path: "/p", Header: map[string]string{"content-length": "99"}, Body: []byte("abc")},
		{Method: "GET", Host: "h", Path: "/big", Header: map[string]string{"x-long": long}},
	}
	for i, req := range requests {
		var got, want writeLog
		if err := WriteRequest(&got, req); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if err := referenceWriteRequest(&want, req); err != nil {
			t.Fatalf("request %d reference: %v", i, err)
		}
		compareWrites(t, fmt.Sprintf("request %d", i), got.writes, want.writes)
	}
	responses := []*Response{
		NewResponse(200, []byte("payload")),
		NewResponse(404, nil),
		NewResponse(299, []byte{}),
		{Status: 200, Header: map[string]string{"x-ape-source": "ap-cache"}, Body: big},
		{Status: 410, Header: map[string]string{"content-length": "7"}, Body: []byte("gone")},
		{Status: -1, Header: map[string]string{"warning": "110 - stale"}},
		{Status: 200, Header: map[string]string{"x-long": long}},
	}
	for i, resp := range responses {
		var got, want writeLog
		if err := WriteResponse(&got, resp); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if err := referenceWriteResponse(&want, resp); err != nil {
			t.Fatalf("response %d reference: %v", i, err)
		}
		compareWrites(t, fmt.Sprintf("response %d", i), got.writes, want.writes)
	}
}

func compareWrites(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d writes, reference %d", what, len(got), len(want))
		return
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("%s: write %d = %.120q, reference %.120q", what, i, got[i], want[i])
		}
	}
}

// referenceQueryParams is the url.ParseQuery-based parser that the
// scanning QueryParams replaced, verbatim apart from its name, kept as the
// reference FuzzQueryParams holds the production parser to.

func referenceQueryParams(path string) map[string]string {
	out := make(map[string]string)
	i := indexByte(path, '?')
	if i < 0 {
		return out
	}
	values, err := url.ParseQuery(path[i+1:])
	if err != nil {
		return out
	}
	for k, vs := range values {
		if len(vs) > 0 {
			out[k] = vs[0]
		}
	}
	return out
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

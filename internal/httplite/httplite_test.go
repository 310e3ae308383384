package httplite

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"apecache/internal/simnet"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

func TestRequestCodecRoundTrip(t *testing.T) {
	req := NewRequest("POST", "api.example.com", "/delegate?x=1")
	req.Set("X-Ape-TTL", "30")
	req.Set("X-Ape-Priority", "2")
	req.Body = []byte("http://api.example.com/obj")

	var buf bytes.Buffer
	if err := WriteRequest(&buf, req); err != nil {
		t.Fatalf("WriteRequest: %v", err)
	}
	got, err := ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("ReadRequest: %v", err)
	}
	if got.Method != "POST" || got.Path != "/delegate?x=1" || got.Host != "api.example.com" {
		t.Errorf("request line = %s %s host=%s", got.Method, got.Path, got.Host)
	}
	if got.Get("x-ape-ttl") != "30" || got.Get("X-Ape-Priority") != "2" {
		t.Errorf("headers = %v", got.Header)
	}
	if string(got.Body) != string(req.Body) {
		t.Errorf("body = %q", got.Body)
	}
}

func TestResponseCodecRoundTrip(t *testing.T) {
	resp := NewResponse(200, []byte("payload"))
	resp.Set("X-Ape-Source", "ap-cache")
	var buf bytes.Buffer
	if err := WriteResponse(&buf, resp); err != nil {
		t.Fatalf("WriteResponse: %v", err)
	}
	got, err := ReadResponse(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("ReadResponse: %v", err)
	}
	if got.Status != 200 || string(got.Body) != "payload" || got.Get("X-Ape-Source") != "ap-cache" {
		t.Errorf("got %+v", got)
	}
}

func TestResponseBodyRoundTripProperty(t *testing.T) {
	f := func(body []byte, status uint8) bool {
		resp := NewResponse(200+int(status%4), body)
		var buf bytes.Buffer
		if err := WriteResponse(&buf, resp); err != nil {
			return false
		}
		got, err := ReadResponse(bufio.NewReader(&buf))
		return err == nil && got.Status == resp.Status && bytes.Equal(got.Body, body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReadRequestRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"NOT-HTTP\r\n\r\n",
		"GET /\r\n\r\n",                                 // missing version
		"GET / HTTP/1.1\r\nbadheader\r\n\r\n",           // malformed header
		"GET / HTTP/1.1\r\ncontent-length: -5\r\n\r\n",  // negative length
		"GET / HTTP/1.1\r\ncontent-length: abc\r\n\r\n", // non-numeric
	} {
		if _, err := ReadRequest(bufio.NewReader(strings.NewReader(in))); err == nil {
			t.Errorf("ReadRequest(%q) succeeded, want error", in)
		}
	}
}

func TestReadResponseRejectsOversizedBody(t *testing.T) {
	head := "HTTP/1.1 200 OK\r\ncontent-length: 999999999\r\n\r\n"
	if _, err := ReadResponse(bufio.NewReader(strings.NewReader(head))); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

// endlessLine serves prefix, then a letter 'a' up to limit bytes in all,
// never a newline, counting what the reader consumed.
type endlessLine struct {
	prefix      string
	read, limit int
}

func (r *endlessLine) Read(p []byte) (int, error) {
	if r.read >= r.limit {
		return 0, io.EOF
	}
	n := min(len(p), r.limit-r.read)
	for i := range p[:n] {
		if k := r.read + i; k < len(r.prefix) {
			p[i] = r.prefix[k]
		} else {
			p[i] = 'a'
		}
	}
	r.read += n
	return n, nil
}

// TestNewlineFreeLineIsRefusedEarly: a peer streaming a line without a
// newline is refused with ErrTooLarge once the line passes maxLineBytes,
// having cost at most that plus one reader buffer — not the whole stream.
func TestNewlineFreeLineIsRefusedEarly(t *testing.T) {
	for _, prefix := range []string{"", "GET / HTTP/1.1\r\nx-long: "} {
		src := &endlessLine{prefix: prefix, limit: 64 << 20}
		br := bufio.NewReader(src)
		if _, err := ReadRequest(br); !errors.Is(err, ErrTooLarge) {
			t.Errorf("prefix %q: err = %v, want ErrTooLarge", prefix, err)
		}
		if budget := len(prefix) + maxLineBytes + br.Size(); src.read > budget {
			t.Errorf("prefix %q: read %d bytes before refusing, want at most %d", prefix, src.read, budget)
		}
	}
}

func TestMuxLongestPrefixWins(t *testing.T) {
	m := NewMux()
	m.HandleFunc("/", func(*Request) *Response { return NewResponse(200, []byte("root")) })
	m.HandleFunc("/obj", func(*Request) *Response { return NewResponse(200, []byte("obj")) })
	m.HandleFunc("/obj/special", func(*Request) *Response { return NewResponse(200, []byte("special")) })

	cases := map[string]string{
		"/":                "root",
		"/other":           "root",
		"/obj":             "obj",
		"/obj?q=1":         "obj",
		"/obj/special/sub": "special",
	}
	for path, want := range cases {
		resp := m.ServeHTTP(NewRequest("GET", "h", path))
		if string(resp.Body) != want {
			t.Errorf("mux(%q) = %q, want %q", path, resp.Body, want)
		}
	}
}

// TestMuxRegistrationOrderAndReplace: routing does not depend on the
// order prefixes were registered in, and registering a prefix again
// replaces its handler.
func TestMuxRegistrationOrderAndReplace(t *testing.T) {
	m := NewMux()
	for _, p := range []string{"/obj/special", "/", "/obj", "/x"} {
		m.HandleFunc(p, func(*Request) *Response { return NewResponse(200, []byte(p)) })
	}
	m.HandleFunc("/obj", func(*Request) *Response { return NewResponse(200, []byte("obj2")) })
	cases := map[string]string{
		"/other":           "/",
		"/obj":             "obj2",
		"/obj/special/sub": "/obj/special",
		"/x#frag":          "/x",
	}
	for path, want := range cases {
		resp := m.ServeHTTP(NewRequest("GET", "h", path))
		if string(resp.Body) != want {
			t.Errorf("mux(%q) = %q, want %q", path, resp.Body, want)
		}
	}
	if n := len(m.routes); n != 4 {
		t.Errorf("%d routes after re-registering one, want 4", n)
	}
}

func TestMuxUnmatchedIs404(t *testing.T) {
	m := NewMux()
	m.HandleFunc("/a", func(*Request) *Response { return NewResponse(200, nil) })
	if resp := m.ServeHTTP(NewRequest("GET", "h", "/b")); resp.Status != 404 {
		t.Errorf("status = %d, want 404", resp.Status)
	}
}

// simFixture runs fn inside a simulation with an HTTP server on node
// "server" port 80 and returns total virtual time consumed.
func simFixture(t *testing.T, handler Handler, fn func(sim *vclock.Sim, net *simnet.Network)) {
	t.Helper()
	sim := vclock.NewSim(time.Time{})
	net := simnet.New(sim, 3)
	net.SetLink("client", "server", simnet.Path{Latency: 5 * time.Millisecond})
	sim.Run("main", func() {
		l, err := net.Node("server").Listen(80)
		if err != nil {
			t.Errorf("Listen: %v", err)
			return
		}
		srv := NewServer(sim, handler)
		sim.Go("http.server", func() { srv.Serve(l) })
		fn(sim, net)
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatalf("sim error: %v", err)
	}
}

func TestClientServerOverSimnet(t *testing.T) {
	echo := HandlerFunc(func(req *Request) *Response {
		return NewResponse(200, []byte("hello "+req.Path))
	})
	simFixture(t, echo, func(sim *vclock.Sim, net *simnet.Network) {
		c := NewClient(net.Node("client"))
		start := sim.Now()
		resp, err := c.Get(transport.Addr{Host: "server", Port: 80}, "server", "/x")
		if err != nil || string(resp.Body) != "hello /x" {
			t.Errorf("Get = %v, %v", resp, err)
			return
		}
		// Cold request: 1 RTT handshake + 1 RTT request/response = 20 ms.
		if got := sim.Now().Sub(start); got != 20*time.Millisecond {
			t.Errorf("cold GET took %v, want 20ms", got)
		}

		start = sim.Now()
		resp, err = c.Get(transport.Addr{Host: "server", Port: 80}, "server", "/y")
		if err != nil || string(resp.Body) != "hello /y" {
			t.Errorf("second Get = %v, %v", resp, err)
			return
		}
		// Warm request reuses the pooled connection: 1 RTT only.
		if got := sim.Now().Sub(start); got != 10*time.Millisecond {
			t.Errorf("warm GET took %v, want 10ms", got)
		}
	})
}

func TestServerHandlesConcurrentClients(t *testing.T) {
	handler := HandlerFunc(func(req *Request) *Response {
		return NewResponse(200, []byte(req.Path))
	})
	simFixture(t, handler, func(sim *vclock.Sim, net *simnet.Network) {
		results := vclock.NewQueue[string](sim, "results")
		const n = 8
		for i := range n {
			i := i
			sim.Go("client", func() {
				c := NewClient(net.Node("client"))
				resp, err := c.Get(transport.Addr{Host: "server", Port: 80}, "server", "/p")
				if err != nil {
					results.Push("err")
					return
				}
				_ = i
				results.Push(string(resp.Body))
			})
		}
		for range n {
			v, err := results.Pop()
			if err != nil || v != "/p" {
				t.Errorf("result = %q, %v", v, err)
				return
			}
		}
	})
}

func TestClientRetriesStaleConnection(t *testing.T) {
	// A handler that instructs connection close; the pooled connection
	// then fails on reuse and the client must transparently redial.
	handler := HandlerFunc(func(req *Request) *Response {
		resp := NewResponse(200, []byte("ok"))
		return resp
	})
	simFixture(t, handler, func(sim *vclock.Sim, net *simnet.Network) {
		c := NewClient(net.Node("client"))
		addr := transport.Addr{Host: "server", Port: 80}
		req := NewRequest("GET", "server", "/")
		req.Set("Connection", "close")
		if _, err := c.Do(addr, req); err != nil {
			t.Errorf("first: %v", err)
			return
		}
		// The server closed the connection after responding; this request
		// finds the stale pooled conn and must recover.
		if resp, err := c.Get(addr, "server", "/"); err != nil || resp.Status != 200 {
			t.Errorf("after close: %v %v", resp, err)
		}
	})
}

func TestMalformedRequestGets400(t *testing.T) {
	handler := HandlerFunc(func(*Request) *Response { return NewResponse(200, nil) })
	simFixture(t, handler, func(sim *vclock.Sim, net *simnet.Network) {
		s, err := net.Node("client").Dial(transport.Addr{Host: "server", Port: 80})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		defer s.Close()
		if _, err := s.Write([]byte("GARBAGE\r\n\r\n")); err != nil {
			t.Errorf("Write: %v", err)
			return
		}
		resp, err := ReadResponse(bufio.NewReader(s))
		if err != nil || resp.Status != 400 {
			t.Errorf("resp = %v, %v; want 400", resp, err)
		}
	})
}

func BenchmarkWriteResponse(b *testing.B) {
	resp := NewResponse(200, make([]byte, 50<<10))
	var buf strings.Builder
	for b.Loop() {
		buf.Reset()
		if err := WriteResponse(&buf, resp); err != nil {
			b.Fatal(err)
		}
	}
}

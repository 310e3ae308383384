package httplite

import (
	"bufio"
	"errors"
	"io"
	"net/url"
	"slices"
	"sort"
	"strings"

	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// Handler responds to one request.
type Handler interface {
	ServeHTTP(req *Request) *Response
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(req *Request) *Response

// ServeHTTP implements Handler.
func (f HandlerFunc) ServeHTTP(req *Request) *Response { return f(req) }

// Mux routes by longest matching path prefix.
type Mux struct {
	routes []route // longest prefix first, kept sorted by Handle
}

type route struct {
	prefix string
	h      Handler
}

var _ Handler = (*Mux)(nil)

// NewMux returns an empty mux; unmatched paths get 404.
func NewMux() *Mux { return &Mux{} }

// Handle registers a handler for a path prefix, replacing any handler
// already registered for it.
func (m *Mux) Handle(prefix string, h Handler) {
	for i := range m.routes {
		if m.routes[i].prefix == prefix {
			m.routes[i].h = h
			return
		}
	}
	// Insert after every prefix at least as long: two distinct prefixes
	// of one length never both match a path, so their order is free.
	i := sort.Search(len(m.routes), func(i int) bool { return len(m.routes[i].prefix) < len(prefix) })
	m.routes = slices.Insert(m.routes, i, route{prefix: prefix, h: h})
}

// HandleFunc registers a function for a path prefix.
func (m *Mux) HandleFunc(prefix string, f func(*Request) *Response) {
	m.Handle(prefix, HandlerFunc(f))
}

// ServeHTTP implements Handler.
func (m *Mux) ServeHTTP(req *Request) *Response {
	path := req.Path
	if i := strings.IndexAny(path, "?#"); i >= 0 {
		path = path[:i]
	}
	for _, r := range m.routes {
		if strings.HasPrefix(path, r.prefix) {
			return r.h.ServeHTTP(req)
		}
	}
	return NewResponse(404, []byte("not found"))
}

// QueryParams parses the query string of a request path with
// url.ParseQuery's rules, without the url.Values it builds: the first
// value of a key wins, and a semicolon or a bad escape anywhere empties
// the result.
func QueryParams(path string) map[string]string {
	out := make(map[string]string)
	_, query, ok := strings.Cut(path, "?")
	if !ok {
		return out
	}
	for query != "" {
		var pair string
		pair, query, _ = strings.Cut(query, "&")
		if pair == "" {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		k, err := url.QueryUnescape(k)
		if err == nil {
			v, err = url.QueryUnescape(v)
		}
		if err != nil || strings.Contains(pair, ";") {
			clear(out)
			return out
		}
		if _, seen := out[k]; !seen {
			out[k] = v
		}
	}
	return out
}

// Server serves HTTP over a transport listener with keep-alive
// connections, one task per connection.
type Server struct {
	env     vclock.Env
	handler Handler
}

// NewServer builds a server around the handler.
func NewServer(env vclock.Env, h Handler) *Server {
	return &Server{env: env, handler: h}
}

// Serve accepts connections until the listener is closed. It blocks, so
// callers normally run it via env.Go.
func (s *Server) Serve(l transport.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		s.env.Go("httplite.conn", func() { s.serveConn(conn) })
	}
}

// serveConn handles one keep-alive connection.
func (s *Server) serveConn(conn transport.Stream) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	for {
		req, err := ReadRequest(br)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, transport.ErrClosed) {
				// Malformed request: best-effort error response.
				_ = WriteResponse(conn, NewResponse(400, nil))
			}
			return
		}
		resp := s.handler.ServeHTTP(req)
		if resp == nil {
			resp = NewResponse(500, nil)
		}
		if err := WriteResponse(conn, resp); err != nil {
			return
		}
		if strings.EqualFold(req.Get("connection"), "close") {
			return
		}
	}
}

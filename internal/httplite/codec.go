// Package httplite is a minimal HTTP/1.1 implementation over
// internal/transport streams. It stands in for the OkHttp client and the
// AP/edge HTTP endpoints of the paper's reference implementation, and runs
// identically over simulated and real sockets.
//
// Supported subset: request line + headers + Content-Length bodies,
// persistent connections (keep-alive) with an idle pool on the client
// side. Chunked encoding, pipelining and TLS are out of scope — none of
// the paper's measurements depend on them.
package httplite

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// Codec limits.
const (
	maxLineBytes   = 8 << 10
	maxHeaderCount = 64
	// MaxBodyBytes bounds message bodies (the largest simulated objects
	// are 500 KB; 16 MiB leaves ample head-room for traces).
	MaxBodyBytes = 16 << 20
)

// Codec errors.
var (
	ErrMalformed = errors.New("httplite: malformed message")
	ErrTooLarge  = errors.New("httplite: message too large")
)

// Request is an HTTP request with a fully-buffered body.
type Request struct {
	Method string
	// Path is the request target including any query string.
	Path   string
	Host   string
	Header map[string]string
	Body   []byte
}

// Response is an HTTP response with a fully-buffered body.
type Response struct {
	Status int
	Header map[string]string
	Body   []byte
}

// NewRequest builds a GET-style request.
func NewRequest(method, host, path string) *Request {
	return &Request{Method: method, Host: host, Path: path, Header: make(map[string]string)}
}

// NewResponse builds a response with the given status and body.
func NewResponse(status int, body []byte) *Response {
	return &Response{Status: status, Header: make(map[string]string), Body: body}
}

// Set sets a header field (case-insensitive key, canonicalized on write).
func (r *Request) Set(key, value string) { r.Header[normalizeKey(key)] = value }

// Get reads a header field.
func (r *Request) Get(key string) string { return r.Header[normalizeKey(key)] }

// Set sets a header field.
func (r *Response) Set(key, value string) { r.Header[normalizeKey(key)] = value }

// Get reads a header field.
func (r *Response) Get(key string) string { return r.Header[normalizeKey(key)] }

// normalizeKey lowercases header keys for map storage.
func normalizeKey(k string) string { return strings.ToLower(k) }

// statusText maps the status codes this stack produces.
func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 204:
		return "No Content"
	case 302:
		return "Found"
	case 304:
		return "Not Modified"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 410:
		return "Gone"
	case 413:
		return "Payload Too Large"
	case 500:
		return "Internal Server Error"
	case 502:
		return "Bad Gateway"
	case 504:
		return "Gateway Timeout"
	default:
		return "Status"
	}
}

// heads recycles the buffers message heads are built in. A head goes out
// in one Write, and an io.Writer may not retain what it is given, so the
// buffer is free again as soon as that Write returns.
var heads = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// maxPooledHead bounds the buffers returned to heads: a message with huge
// headers must not pin its buffer for the life of the process.
const maxPooledHead = 64 << 10

// WriteRequest serializes req to w: the head in one Write, the body (if
// any) in a second.
func WriteRequest(w io.Writer, req *Request) error {
	bp := heads.Get().(*[]byte)
	path := req.Path
	if path == "" {
		path = "/"
	}
	b := append((*bp)[:0], req.Method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\n"...)
	if req.Host != "" {
		b = appendHeader(b, "host", req.Host)
	}
	for k, v := range req.Header {
		if k == "host" || k == "content-length" {
			continue
		}
		b = appendHeader(b, k, v)
	}
	return writeMessage(w, bp, b, req.Body, "request")
}

// WriteResponse serializes resp to w: the head in one Write, the body (if
// any) in a second.
func WriteResponse(w io.Writer, resp *Response) error {
	bp := heads.Get().(*[]byte)
	b := append((*bp)[:0], "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(resp.Status), 10)
	b = append(b, ' ')
	b = append(b, statusText(resp.Status)...)
	b = append(b, "\r\n"...)
	for k, v := range resp.Header {
		if k == "content-length" {
			continue
		}
		b = appendHeader(b, k, v)
	}
	return writeMessage(w, bp, b, resp.Body, "response")
}

func appendHeader(b []byte, k, v string) []byte {
	b = append(b, k...)
	b = append(b, ": "...)
	b = append(b, v...)
	return append(b, "\r\n"...)
}

// writeMessage ends the head with content-length, writes it, recycles its
// buffer and then writes the body.
func writeMessage(w io.Writer, bp *[]byte, head, body []byte, kind string) error {
	head = append(head, "content-length: "...)
	head = strconv.AppendInt(head, int64(len(body)), 10)
	head = append(head, "\r\n\r\n"...)
	_, err := w.Write(head)
	if cap(head) <= maxPooledHead {
		*bp = head[:0]
		heads.Put(bp)
	}
	if err != nil {
		return fmt.Errorf("httplite: write %s head: %w", kind, err)
	}
	if len(body) > 0 {
		if _, err := w.Write(body); err != nil {
			return fmt.Errorf("httplite: write %s body: %w", kind, err)
		}
	}
	return nil
}

// ReadRequest parses one request from r.
func ReadRequest(r *bufio.Reader) (*Request, error) {
	line, err := readLine(r)
	if err != nil {
		return nil, err
	}
	method, rest, ok1 := strings.Cut(line, " ")
	target, proto, ok2 := strings.Cut(rest, " ")
	if !ok1 || !ok2 || !strings.HasPrefix(proto, "HTTP/1.") {
		return nil, fmt.Errorf("httplite: request line %q: %w", line, ErrMalformed)
	}
	req := &Request{Method: method, Path: target, Header: make(map[string]string)}
	if err := readHeaders(r, req.Header); err != nil {
		return nil, err
	}
	req.Host = req.Header["host"]
	req.Body, err = readBody(r, req.Header)
	if err != nil {
		return nil, err
	}
	return req, nil
}

// ReadResponse parses one response from r.
func ReadResponse(r *bufio.Reader) (*Response, error) {
	line, err := readLine(r)
	if err != nil {
		return nil, err
	}
	proto, rest, ok := strings.Cut(line, " ")
	if !ok || !strings.HasPrefix(proto, "HTTP/1.") {
		return nil, fmt.Errorf("httplite: status line %q: %w", line, ErrMalformed)
	}
	code, _, _ := strings.Cut(rest, " ")
	status, err := strconv.Atoi(code)
	if err != nil {
		return nil, fmt.Errorf("httplite: status %q: %w", code, ErrMalformed)
	}
	resp := &Response{Status: status, Header: make(map[string]string)}
	if err := readHeaders(r, resp.Header); err != nil {
		return nil, err
	}
	resp.Body, err = readBody(r, resp.Header)
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// readLine reads one line, returning it without its line ending. A line
// longer than the reader's buffer is collected chunk by chunk and refused
// with ErrTooLarge as soon as it passes maxLineBytes, so a peer that never
// sends a newline costs at most maxLineBytes plus one buffer.
func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadSlice('\n')
	var long []byte
	for err == bufio.ErrBufferFull {
		long = append(long, line...) // line is only valid until the next read
		if len(long) > maxLineBytes {
			return "", ErrTooLarge
		}
		line, err = r.ReadSlice('\n')
	}
	if long != nil {
		line = append(long, line...)
	}
	if err != nil {
		if err == io.EOF && len(line) == 0 {
			return "", io.EOF
		}
		if err == io.EOF {
			return "", fmt.Errorf("httplite: unterminated line: %w", ErrMalformed)
		}
		return "", fmt.Errorf("httplite: read line: %w", err)
	}
	if len(line) > maxLineBytes {
		return "", ErrTooLarge
	}
	return string(bytes.TrimRight(line, "\r\n")), nil
}

func readHeaders(r *bufio.Reader, dst map[string]string) error {
	for count := 0; ; count++ {
		if count > maxHeaderCount {
			return ErrTooLarge
		}
		line, err := readLine(r)
		if err != nil {
			if err == io.EOF {
				return fmt.Errorf("httplite: eof in headers: %w", ErrMalformed)
			}
			return err
		}
		if line == "" {
			return nil
		}
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			return fmt.Errorf("httplite: header %q: %w", line, ErrMalformed)
		}
		dst[normalizeKey(strings.TrimSpace(k))] = strings.TrimSpace(v)
	}
}

func readBody(r *bufio.Reader, header map[string]string) ([]byte, error) {
	cl := header["content-length"]
	if cl == "" || cl == "0" {
		return nil, nil
	}
	n, err := strconv.Atoi(cl)
	if err != nil || n < 0 {
		return nil, fmt.Errorf("httplite: content-length %q: %w", cl, ErrMalformed)
	}
	if n > MaxBodyBytes {
		return nil, ErrTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("httplite: read body: %w", err)
	}
	return body, nil
}

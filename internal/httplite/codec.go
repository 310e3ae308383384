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

// WriteRequest serializes req to w.
func WriteRequest(w io.Writer, req *Request) error {
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

// WriteResponse serializes resp to w.
func WriteResponse(w io.Writer, resp *Response) error {
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

// ReadRequest parses one request from r.
func ReadRequest(r *bufio.Reader) (*Request, error) {
	line, err := readLine(r)
	if err != nil {
		return nil, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/1.") {
		return nil, fmt.Errorf("httplite: request line %q: %w", line, ErrMalformed)
	}
	req := &Request{Method: parts[0], Path: parts[1], Header: make(map[string]string)}
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
	parts := strings.SplitN(line, " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/1.") {
		return nil, fmt.Errorf("httplite: status line %q: %w", line, ErrMalformed)
	}
	status, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, fmt.Errorf("httplite: status %q: %w", parts[1], ErrMalformed)
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

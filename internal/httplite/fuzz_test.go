package httplite

import (
	"bufio"
	"bytes"
	"maps"
	"strings"
	"testing"
)

// FuzzReadRequest: the request parser must never panic, and anything it
// accepts must survive a write/read round trip.
func FuzzReadRequest(f *testing.F) {
	f.Add("GET /cache?u=http%3A%2F%2Fx HTTP/1.1\r\nhost: ap\r\ncontent-length: 0\r\n\r\n")
	f.Add("POST /delegate HTTP/1.1\r\nhost: ap\r\nx-ape-ttl: 30\r\ncontent-length: 5\r\n\r\nhello")
	f.Add("GARBAGE")
	f.Add("GET / HTTP/1.1\r\ncontent-length: 99999999999\r\n\r\n")

	f.Fuzz(func(t *testing.T, input string) {
		req, err := ReadRequest(bufio.NewReader(strings.NewReader(input)))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteRequest(&buf, req); err != nil {
			t.Fatalf("accepted request failed to serialize: %v", err)
		}
		again, err := ReadRequest(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if again.Method != req.Method || !bytes.Equal(again.Body, req.Body) {
			t.Fatalf("round trip drift: %q vs %q", again.Method, req.Method)
		}
	})
}

// FuzzReadResponse mirrors FuzzReadRequest for the response parser.
func FuzzReadResponse(f *testing.F) {
	f.Add("HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nhi")
	f.Add("HTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n")
	f.Add("NOPE")

	f.Fuzz(func(t *testing.T, input string) {
		resp, err := ReadResponse(bufio.NewReader(strings.NewReader(input)))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteResponse(&buf, resp); err != nil {
			t.Fatalf("accepted response failed to serialize: %v", err)
		}
		again, err := ReadResponse(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if again.Status != resp.Status || !bytes.Equal(again.Body, resp.Body) {
			t.Fatalf("round trip drift")
		}
	})
}

// FuzzQueryParams: QueryParams returns the reference's map for any path.
func FuzzQueryParams(f *testing.F) {
	for _, path := range []string{
		"/cache?u=http%3A%2F%2Fapi.movie.example%2Fclip%2F3&app=movie",
		"/cache?u=http://api.example/obj&app=demo",
		"/cache?u=a&u=b&app=x&app=",   // duplicate keys: the first value wins
		"/cache?u=a;b&app=x",          // semicolon separator
		"/cache?app=x&u=%zz",          // bad escape after a good pair
		"/cache?u=a+b&app=c%20d",      // plus and percent-encoded space
		"/cache?=v&k=&&k2&%41=%42",    // empty key, empty value, empty pair, bare key
		"/cache?u=%E4%B8%AD&app=\xff", // non-ASCII, invalid UTF-8
		"/cache?u=x#frag",
		"/cache?",
		"/cache",
		"?%",
	} {
		f.Add(path)
	}
	f.Fuzz(func(t *testing.T, path string) {
		if got, want := QueryParams(path), referenceQueryParams(path); !maps.Equal(got, want) {
			t.Fatalf("QueryParams(%q) = %q, reference %q", path, got, want)
		}
	})
}

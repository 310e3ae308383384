package apcache

import (
	"maps"
	"net/url"
	"testing"
)

// This file keeps the url.ParseQuery-based queryParams that the scanning
// one in apcache.go replaced, verbatim apart from its name, as the
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

// FuzzQueryParams: queryParams returns the reference's map for any path.
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
		if got, want := queryParams(path), referenceQueryParams(path); !maps.Equal(got, want) {
			t.Fatalf("queryParams(%q) = %q, reference %q", path, got, want)
		}
	})
}

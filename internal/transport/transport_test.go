package transport

import "testing"

func TestParseAddr(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Addr
		ok   bool
	}{
		{"ap:7001", Addr{Host: "ap", Port: 7001}, true},
		{"127.0.0.1:65535", Addr{Host: "127.0.0.1", Port: 65535}, true},
		{"::1:8080", Addr{Host: "::1", Port: 8080}, true}, // host containing ':'
		{"noport", Addr{}, false},
		{"ap:", Addr{}, false},
		{"ap:0", Addr{}, false},
		{"ap:65536", Addr{}, false},
		{"ap:abc", Addr{}, false},
	} {
		got, err := ParseAddr(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseAddr(%q) = %+v, %v; want %+v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
		if tc.ok && got.String() != tc.in {
			t.Errorf("ParseAddr(%q).String() = %q, want a round trip", tc.in, got.String())
		}
	}
}

package dnswire

import (
	"encoding/binary"
	"strings"
	"testing"
)

// This file keeps the per-label decodeName that the stack-buffer one in
// codec.go replaced, verbatim apart from its name and comments, as the
// reference FuzzDecodeName holds the production decoder to: same name,
// same resume offset, same error, for every input.

func referenceDecodeName(data []byte, off int) (string, int, error) {
	var labels []string
	next := -1 // resume offset after the first pointer
	jumps := 0
	totalLen := 0
	for {
		if off >= len(data) {
			return "", 0, ErrTruncatedMessage
		}
		b := data[off]
		switch {
		case b == 0:
			if next < 0 {
				next = off + 1
			}
			return strings.Join(labels, "."), next, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(data) {
				return "", 0, ErrTruncatedMessage
			}
			ptr := int(binary.BigEndian.Uint16(data[off:]) & 0x3FFF)
			if next < 0 {
				next = off + 2
			}
			if ptr >= off || jumps > 62 {
				return "", 0, ErrBadPointer
			}
			jumps++
			off = ptr
		case b&0xC0 != 0:
			return "", 0, ErrBadName
		default:
			n := int(b)
			if off+1+n > len(data) {
				return "", 0, ErrTruncatedMessage
			}
			totalLen += n + 1
			if totalLen > 255 {
				return "", 0, ErrBadName
			}
			label := strings.ToLower(string(data[off+1 : off+1+n]))
			if strings.ContainsRune(label, '.') {
				return "", 0, ErrBadName
			}
			labels = append(labels, label)
			off += 1 + n
		}
	}
}

// wireName lays labels out uncompressed, without validating them.
func wireName(labels ...string) []byte {
	var b []byte
	for _, l := range labels {
		b = append(b, byte(len(l)))
		b = append(b, l...)
	}
	return append(b, 0)
}

// FuzzDecodeName: decodeName agrees with the reference at every offset
// of arbitrary bytes.
func FuzzDecodeName(f *testing.F) {
	f.Add(wireName("WWW", "Apple", "com"))
	f.Add(wireName("api", "movie", "example"))
	f.Add(wireName("ÄPFEL", "bücher", "DE"))             // non-ASCII, upper case
	f.Add(wireName("a\xffB", "\xc3", "x"))               // invalid UTF-8
	f.Add(wireName("\xe2\x84\xaaelvin", "Ⱥ", "EXAMPLE")) // lowercasing that changes length
	f.Add(wireName("a.b", "c"))                          // dot inside a label
	f.Add(wireName("\xc4\xb0", "."))                     // non-ASCII label beside a dot label
	f.Add(wireName(strings.Repeat("\xff", 63), strings.Repeat("Z", 63), strings.Repeat("\x80", 63), strings.Repeat("y", 61)))
	f.Add(append(wireName("Host", "Example"), 3, 'W', 'W', 'W', 0xC0, 0x00)) // pointer back to the first name
	f.Add([]byte{0xC0, 0x00})                                                // pointer to itself
	f.Add([]byte{0x80, 0x01})                                                // reserved label type
	f.Add([]byte{5, 'a', 'b'})                                               // truncated label
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for off := 0; off <= len(data); off++ {
			name, next, err := decodeName(data, off)
			wantName, wantNext, wantErr := referenceDecodeName(data, off)
			if name != wantName || next != wantNext || err != wantErr {
				t.Fatalf("decodeName(%q, %d) = %q, %d, %v; reference %q, %d, %v",
					data, off, name, next, err, wantName, wantNext, wantErr)
			}
		}
	})
}

// Package dnswire implements the DNS wire format of RFC 1035 — header,
// question and resource-record sections with full name compression — plus
// EDNS(0) OPT records (RFC 6891) and the APE-CACHE extension: a custom
// resource-record TYPE 300 ("DNS-Cache") carried in the Additional section
// whose RDATA is a list of ⟨HASH(URL), FLAG⟩ tuples, exactly as defined in
// §IV-B of the paper.
package dnswire

import (
	"errors"
	"fmt"
	"strings"
)

// Type is a resource-record TYPE code.
type Type uint16

// Resource-record types understood by this codec.
const (
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypePTR   Type = 12
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
	TypeOPT   Type = 41
	// TypeDNSCache is the APE-CACHE cache-lookup RR ("we assign an
	// unsigned integer of 300 to indicate a DNS-Cache query").
	TypeDNSCache Type = 300
)

// String renders the mnemonic type name.
func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypePTR:
		return "PTR"
	case TypeTXT:
		return "TXT"
	case TypeAAAA:
		return "AAAA"
	case TypeOPT:
		return "OPT"
	case TypeDNSCache:
		return "DNSCACHE"
	default:
		return fmt.Sprintf("TYPE%d", uint16(t))
	}
}

// Class is a resource-record CLASS code.
type Class uint16

// Classes. The paper defines the DNS-Cache RR CLASS as either REQUEST or
// RESPONSE; we place those in the private-use range.
const (
	ClassIN            Class = 1
	ClassCacheRequest  Class = 0xFF01
	ClassCacheResponse Class = 0xFF02
	// ClassTrace marks a Type-300 RR carrying a telemetry trace ID
	// piggybacked on a DNS-Cache query, so per-request spans recorded at
	// the AP join the client's trace.
	ClassTrace Class = 0xFF03
)

// String renders the mnemonic class name.
func (c Class) String() string {
	switch c {
	case ClassIN:
		return "IN"
	case ClassCacheRequest:
		return "REQUEST"
	case ClassCacheResponse:
		return "RESPONSE"
	case ClassTrace:
		return "TRACE"
	default:
		return fmt.Sprintf("CLASS%d", uint16(c))
	}
}

// RCode is a response code.
type RCode uint8

// Response codes.
const (
	RCodeSuccess        RCode = 0
	RCodeFormatError    RCode = 1
	RCodeServerFailure  RCode = 2
	RCodeNameError      RCode = 3 // NXDOMAIN
	RCodeNotImplemented RCode = 4
	RCodeRefused        RCode = 5
)

// Opcode is a query kind.
type Opcode uint8

// OpcodeQuery is the standard query opcode.
const OpcodeQuery Opcode = 0

// Header is the fixed 12-byte DNS message header (counts are derived from
// the section slices at encode time).
type Header struct {
	ID                 uint16
	Response           bool
	Opcode             Opcode
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              RCode
}

// Question is one entry of the question section.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// RR is one resource record. Data holds the RDATA in canonical
// (uncompressed) wire form; use the typed accessors and constructors to
// work with it.
type RR struct {
	Name  string
	Type  Type
	Class Class
	TTL   uint32
	Data  []byte
}

// Message is a complete DNS message.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
}

// Codec errors.
var (
	ErrTruncatedMessage = errors.New("dnswire: truncated message")
	ErrBadName          = errors.New("dnswire: malformed domain name")
	ErrBadPointer       = errors.New("dnswire: bad compression pointer")
	ErrTooLarge         = errors.New("dnswire: message exceeds 64 KiB")
)

// CanonicalName lowercases a domain name and strips any trailing dot,
// giving the form used as map keys throughout the stack.
func CanonicalName(name string) string {
	return strings.TrimSuffix(strings.ToLower(name), ".")
}

// NewQuery builds a standard recursive query for name/type.
func NewQuery(id uint16, name string, t Type) *Message {
	return &Message{
		Header:    Header{ID: id, RecursionDesired: true},
		Questions: []Question{{Name: CanonicalName(name), Type: t, Class: ClassIN}},
	}
}

// Reply builds a response skeleton echoing the query's ID and question.
func (m *Message) Reply() *Message {
	r := &Message{
		Header: Header{
			ID:                 m.Header.ID,
			Response:           true,
			Opcode:             m.Header.Opcode,
			RecursionDesired:   m.Header.RecursionDesired,
			RecursionAvailable: true,
		},
	}
	r.Questions = append(r.Questions, m.Questions...)
	return r
}

// FirstQuestion returns the first question, or a zero Question when the
// section is empty.
func (m *Message) FirstQuestion() Question {
	if len(m.Questions) == 0 {
		return Question{}
	}
	return m.Questions[0]
}

// AnswerA returns the first A-record address in the answer section and
// whether one exists.
func (m *Message) AnswerA() (IPv4, bool) {
	for _, rr := range m.Answers {
		if rr.Type == TypeA && len(rr.Data) == 4 {
			return IPv4{rr.Data[0], rr.Data[1], rr.Data[2], rr.Data[3]}, true
		}
	}
	return IPv4{}, false
}

// AnswerCNAME returns the first CNAME target in the answer section.
func (m *Message) AnswerCNAME() (string, bool) {
	for _, rr := range m.Answers {
		if rr.Type == TypeCNAME {
			name, _, err := decodeName(rr.Data, 0)
			if err == nil {
				return name, true
			}
		}
	}
	return "", false
}

// IPv4 is a 4-byte address (the simulator maps node names to synthetic
// IPv4 addresses; realnet uses genuine ones).
type IPv4 [4]byte

// String renders dotted-quad form.
func (ip IPv4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

// IsZero reports whether the address is 0.0.0.0.
func (ip IPv4) IsZero() bool { return ip == IPv4{} }

// NewA constructs an A record.
func NewA(name string, ttl uint32, ip IPv4) RR {
	return RR{Name: CanonicalName(name), Type: TypeA, Class: ClassIN, TTL: ttl, Data: ip[:]}
}

// NewCNAME constructs a CNAME record.
func NewCNAME(name string, ttl uint32, target string) RR {
	data, err := encodeNameRaw(CanonicalName(target))
	if err != nil {
		// Constructors take developer-provided constants; a bad name is a
		// programming error surfaced loudly rather than propagated.
		panic(fmt.Sprintf("dnswire: invalid CNAME target %q: %v", target, err))
	}
	return RR{Name: CanonicalName(name), Type: TypeCNAME, Class: ClassIN, TTL: ttl, Data: data}
}

// NewOPT constructs an EDNS(0) OPT pseudo-record advertising the given UDP
// payload size (RFC 6891: the CLASS field carries the size).
func NewOPT(udpSize uint16) RR {
	return RR{Name: "", Type: TypeOPT, Class: Class(udpSize)}
}

// ClassicUDPSize is the pre-EDNS maximum DNS/UDP payload (RFC 1035).
const ClassicUDPSize = 512

// UDPSize returns the maximum UDP payload the message's sender can
// accept: the EDNS OPT advertisement if present, else the classic 512.
func (m *Message) UDPSize() int {
	for _, rr := range m.Additional {
		if rr.Type == TypeOPT {
			if size := int(rr.Class); size > ClassicUDPSize {
				return size
			}
			return ClassicUDPSize
		}
	}
	return ClassicUDPSize
}

// Truncated returns a copy of the response reduced to its header (with
// the TC bit set) and question section, the standard shape that tells the
// client to retry over TCP.
func (m *Message) Truncated() *Message {
	t := &Message{Header: m.Header}
	t.Header.Truncated = true
	t.Questions = append(t.Questions, m.Questions...)
	return t
}

// CNAMETarget decodes the target of a CNAME/NS/PTR record.
func (rr RR) CNAMETarget() (string, error) {
	name, _, err := decodeName(rr.Data, 0)
	return name, err
}

// TXTString decodes the first character-string of a TXT record.
func (rr RR) TXTString() (string, error) {
	if len(rr.Data) == 0 {
		return "", nil
	}
	n := int(rr.Data[0])
	if len(rr.Data) < 1+n {
		return "", ErrTruncatedMessage
	}
	return string(rr.Data[1 : 1+n]), nil
}

package dnswire

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"unicode/utf8"
)

// maxMessageSize bounds encoded messages; our transports carry up to
// 64 KiB datagrams, so no truncation logic beyond the TC flag is needed.
const maxMessageSize = 64 << 10

// encoders pools the compression-offset maps (and encoder shells) across
// messages: every response the AP sends would otherwise allocate a fresh
// map just to throw it away microseconds later.
var encoders = sync.Pool{New: func() any {
	return &encoder{offsets: make(map[string]int, 8)}
}}

// Encode serializes the message with RFC 1035 name compression applied to
// owner names.
func (m *Message) Encode() ([]byte, error) {
	return m.AppendEncode(make([]byte, 0, 512))
}

// AppendEncode serializes the message onto dst (which may carry a prefix,
// e.g. a TCP length frame, or be a recycled buffer) and returns the
// extended slice. Compression offsets are taken relative to the message
// start, so the prefix does not disturb pointer targets.
func (m *Message) AppendEncode(dst []byte) ([]byte, error) {
	e := encoders.Get().(*encoder)
	e.buf = dst
	e.base = len(dst)
	out, err := e.encode(m)
	e.buf = nil // do not pin the caller's buffer from the pool
	clear(e.offsets)
	encoders.Put(e)
	if err != nil {
		return dst, err
	}
	return out, nil
}

func (e *encoder) encode(m *Message) ([]byte, error) {
	flags := uint16(0)
	if m.Header.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.Header.Opcode&0xF) << 11
	if m.Header.Authoritative {
		flags |= 1 << 10
	}
	if m.Header.Truncated {
		flags |= 1 << 9
	}
	if m.Header.RecursionDesired {
		flags |= 1 << 8
	}
	if m.Header.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(m.Header.RCode & 0xF)

	e.u16(m.Header.ID)
	e.u16(flags)
	e.u16(uint16(len(m.Questions)))
	e.u16(uint16(len(m.Answers)))
	e.u16(uint16(len(m.Authority)))
	e.u16(uint16(len(m.Additional)))

	for _, q := range m.Questions {
		if err := e.name(q.Name); err != nil {
			return nil, fmt.Errorf("encode question %q: %w", q.Name, err)
		}
		e.u16(uint16(q.Type))
		e.u16(uint16(q.Class))
	}
	for _, section := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range section {
			if err := e.rr(rr); err != nil {
				return nil, err
			}
		}
	}
	if len(e.buf)-e.base > maxMessageSize {
		return nil, ErrTooLarge
	}
	return e.buf, nil
}

type encoder struct {
	buf     []byte
	base    int            // message start within buf (prefix bytes before it)
	offsets map[string]int // suffix -> offset from base, for compression
}

func (e *encoder) u16(v uint16) { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }

func (e *encoder) rr(rr RR) error {
	if err := e.name(rr.Name); err != nil {
		return fmt.Errorf("encode rr %q: %w", rr.Name, err)
	}
	e.u16(uint16(rr.Type))
	e.u16(uint16(rr.Class))
	e.u32(rr.TTL)
	if len(rr.Data) > 0xFFFF {
		return fmt.Errorf("encode rr %q: rdata %d bytes: %w", rr.Name, len(rr.Data), ErrTooLarge)
	}
	e.u16(uint16(len(rr.Data)))
	e.buf = append(e.buf, rr.Data...)
	return nil
}

// name writes a possibly-compressed domain name.
func (e *encoder) name(name string) error {
	name = CanonicalName(name)
	if name == "" {
		e.buf = append(e.buf, 0)
		return nil
	}
	// Walk label boundaries over suffix substrings instead of
	// Split/Join-ing: every suffix shares name's backing array, so the
	// whole compression pass allocates nothing (the offsets map is
	// cleared before the encoder returns to its pool, so those
	// substrings are not retained either).
	for start := 0; start < len(name); {
		suffix := name[start:]
		if off, ok := e.offsets[suffix]; ok && off < 0x3FFF {
			e.u16(0xC000 | uint16(off))
			return nil
		}
		if rel := len(e.buf) - e.base; rel < 0x3FFF {
			e.offsets[suffix] = rel
		}
		label := suffix
		if dot := strings.IndexByte(suffix, '.'); dot >= 0 {
			label = suffix[:dot]
			start += dot + 1
			if start == len(name) {
				return ErrBadName // trailing dot survived canonicalization
			}
		} else {
			start = len(name)
		}
		if len(label) == 0 || len(label) > 63 {
			return ErrBadName
		}
		e.buf = append(e.buf, byte(len(label)))
		e.buf = append(e.buf, label...)
	}
	e.buf = append(e.buf, 0)
	return nil
}

// encodeNameRaw writes an uncompressed name (used inside RDATA).
func encodeNameRaw(name string) ([]byte, error) {
	name = CanonicalName(name)
	if name == "" {
		return []byte{0}, nil
	}
	var buf []byte
	for _, label := range strings.Split(name, ".") {
		if len(label) == 0 || len(label) > 63 {
			return nil, ErrBadName
		}
		buf = append(buf, byte(len(label)))
		buf = append(buf, label...)
	}
	if len(buf) > 254 {
		return nil, ErrBadName
	}
	return append(buf, 0), nil
}

// Decode parses a wire-format DNS message. Compressed names — including
// names inside the RDATA of CNAME/NS/PTR records — are fully decompressed.
func Decode(data []byte) (*Message, error) {
	d := &decoder{data: data}
	var m Message

	id, err := d.u16()
	if err != nil {
		return nil, err
	}
	flags, err := d.u16()
	if err != nil {
		return nil, err
	}
	m.Header = Header{
		ID:                 id,
		Response:           flags&(1<<15) != 0,
		Opcode:             Opcode(flags >> 11 & 0xF),
		Authoritative:      flags&(1<<10) != 0,
		Truncated:          flags&(1<<9) != 0,
		RecursionDesired:   flags&(1<<8) != 0,
		RecursionAvailable: flags&(1<<7) != 0,
		RCode:              RCode(flags & 0xF),
	}
	var counts [4]uint16
	for i := range counts {
		if counts[i], err = d.u16(); err != nil {
			return nil, err
		}
	}
	// Pre-size sections from the declared counts, but never trust a count
	// beyond what the remaining bytes could physically hold (a question is
	// ≥5 bytes, an RR ≥11) — hostile headers must not force allocation.
	remaining := len(d.data) - d.pos
	if n := presize(counts[0], remaining/5); n > 0 {
		m.Questions = make([]Question, 0, n)
	}
	for range counts[0] {
		name, err := d.name()
		if err != nil {
			return nil, fmt.Errorf("decode question: %w", err)
		}
		t, err := d.u16()
		if err != nil {
			return nil, err
		}
		c, err := d.u16()
		if err != nil {
			return nil, err
		}
		m.Questions = append(m.Questions, Question{Name: name, Type: Type(t), Class: Class(c)})
	}
	sections := []*[]RR{&m.Answers, &m.Authority, &m.Additional}
	remaining = len(d.data) - d.pos
	for i, section := range sections {
		if n := presize(counts[i+1], remaining/11); n > 0 {
			*section = make([]RR, 0, n)
		}
		for range counts[i+1] {
			rr, err := d.rr()
			if err != nil {
				return nil, err
			}
			*section = append(*section, rr)
		}
	}
	return &m, nil
}

// presize caps a declared record count by the physical maximum the
// remaining payload could hold.
func presize(count uint16, physMax int) int {
	n := int(count)
	if n > physMax {
		n = physMax
	}
	return n
}

type decoder struct {
	data  []byte
	pos   int
	rdata []byte // copies of the message's RDATA, one backing array
}

func (d *decoder) u16() (uint16, error) {
	if d.pos+2 > len(d.data) {
		return 0, ErrTruncatedMessage
	}
	v := binary.BigEndian.Uint16(d.data[d.pos:])
	d.pos += 2
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if d.pos+4 > len(d.data) {
		return 0, ErrTruncatedMessage
	}
	v := binary.BigEndian.Uint32(d.data[d.pos:])
	d.pos += 4
	return v, nil
}

func (d *decoder) name() (string, error) {
	name, next, err := decodeName(d.data, d.pos)
	if err != nil {
		return "", err
	}
	d.pos = next
	return name, nil
}

func (d *decoder) rr() (RR, error) {
	name, err := d.name()
	if err != nil {
		return RR{}, fmt.Errorf("decode rr name: %w", err)
	}
	t, err := d.u16()
	if err != nil {
		return RR{}, err
	}
	c, err := d.u16()
	if err != nil {
		return RR{}, err
	}
	ttl, err := d.u32()
	if err != nil {
		return RR{}, err
	}
	rdlen, err := d.u16()
	if err != nil {
		return RR{}, err
	}
	if d.pos+int(rdlen) > len(d.data) {
		return RR{}, ErrTruncatedMessage
	}
	rdata := d.data[d.pos : d.pos+int(rdlen)]
	rr := RR{Name: name, Type: Type(t), Class: Class(c), TTL: ttl}
	switch rr.Type {
	case TypeCNAME, TypeNS, TypePTR:
		// The RDATA is a domain name that may use compression pointers
		// into the whole message; canonicalize to uncompressed form.
		target, _, err := decodeName(d.data, d.pos)
		if err != nil {
			return RR{}, fmt.Errorf("decode %s rdata: %w", rr.Type, err)
		}
		raw, err := encodeNameRaw(target)
		if err != nil {
			return RR{}, fmt.Errorf("decode %s rdata: %w", rr.Type, err)
		}
		rr.Data = raw
	default:
		if d.rdata == nil {
			// Every later RDATA lies in the bytes still ahead, so one
			// array of that size holds them all.
			d.rdata = make([]byte, 0, len(d.data)-d.pos)
		}
		start := len(d.rdata)
		d.rdata = append(d.rdata, rdata...)
		rr.Data = d.rdata[start:len(d.rdata):len(d.rdata)]
	}
	d.pos += int(rdlen)
	return rr, nil
}

// decodeName reads a (possibly compressed) name starting at off and
// returns the canonical name plus the offset just past it in the
// uncompressed portion. The name is assembled in a stack buffer with ASCII
// lowercased in place, so a name costs one allocation, its string; a
// label holding a byte >= 0x80 is lowered by strings.ToLower, whose
// canonical form (U+FFFD for invalid UTF-8) non-ASCII names keep.
func decodeName(data []byte, off int) (string, int, error) {
	var buf [255]byte // a name's labels plus dots never pass 254 bytes
	name := buf[:0]
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
			return string(name), next, nil
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
			if len(name) > 0 {
				name = append(name, '.')
			}
			var ok bool
			if name, ok = appendLabel(name, data[off+1:off+1+n]); !ok {
				// This stack canonicalizes names as dot-joined strings,
				// so a dot inside a label has no faithful
				// representation; real resolvers treat such labels as
				// hostile anyway.
				return "", 0, ErrBadName
			}
			off += 1 + n
		}
	}
}

// appendLabel appends the lowercased label to name, reporting false if
// the label holds a dot.
func appendLabel(name, label []byte) ([]byte, bool) {
	start := len(name)
	for _, c := range label {
		switch {
		case c >= utf8.RuneSelf:
			// strings.ToLower may change the label's length (invalid
			// UTF-8 becomes U+FFFD); append grows past buf if need be.
			lower := strings.ToLower(string(label))
			return append(name[:start], lower...), !strings.ContainsRune(lower, '.')
		case c == '.':
			return name, false
		case 'A' <= c && c <= 'Z':
			c += 'a' - 'A'
		}
		name = append(name, c)
	}
	return name, true
}

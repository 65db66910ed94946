package dnswire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"
)

// decoder unpacks a wire-format message.
type decoder struct {
	buf []byte
	pos int
}

// Unpack parses a wire-format DNS message.
func Unpack(b []byte) (*Message, error) {
	d := &decoder{buf: b}
	m := &Message{}
	if err := d.header(m); err != nil {
		return nil, err
	}
	nq := int(binary.BigEndian.Uint16(b[4:6]))
	na := int(binary.BigEndian.Uint16(b[6:8]))
	nauth := int(binary.BigEndian.Uint16(b[8:10]))
	nadd := int(binary.BigEndian.Uint16(b[10:12]))
	for i := 0; i < nq; i++ {
		q, err := d.question()
		if err != nil {
			return nil, err
		}
		m.Questions = append(m.Questions, q)
	}
	var err error
	if m.Answers, err = d.rrs(na); err != nil {
		return nil, err
	}
	if m.Authority, err = d.rrs(nauth); err != nil {
		return nil, err
	}
	if m.Additional, err = d.rrs(nadd); err != nil {
		return nil, err
	}
	return m, nil
}

func (d *decoder) header(m *Message) error {
	if len(d.buf) < 12 {
		return ErrTruncatedMessage
	}
	m.Header.ID = binary.BigEndian.Uint16(d.buf[0:2])
	flags := binary.BigEndian.Uint16(d.buf[2:4])
	m.Header.Response = flags&(1<<15) != 0
	m.Header.OpCode = uint8(flags >> 11 & 0xF)
	m.Header.Authoritative = flags&(1<<10) != 0
	m.Header.Truncated = flags&(1<<9) != 0
	m.Header.RecursionDesired = flags&(1<<8) != 0
	m.Header.RecursionAvailable = flags&(1<<7) != 0
	m.Header.RCode = RCode(flags & 0xF)
	d.pos = 12
	return nil
}

func (d *decoder) question() (Question, error) {
	name, err := d.name()
	if err != nil {
		return Question{}, err
	}
	t, err := d.u16()
	if err != nil {
		return Question{}, err
	}
	cl, err := d.u16()
	if err != nil {
		return Question{}, err
	}
	return Question{Name: name, Type: Type(t), Class: Class(cl)}, nil
}

func (d *decoder) rrs(n int) ([]RR, error) {
	var out []RR
	for i := 0; i < n; i++ {
		rr, err := d.rr()
		if err != nil {
			return nil, err
		}
		out = append(out, rr)
	}
	return out, nil
}

func (d *decoder) rr() (RR, error) {
	var rr RR
	name, err := d.name()
	if err != nil {
		return rr, err
	}
	rr.Name = name
	t, err := d.u16()
	if err != nil {
		return rr, err
	}
	rr.Type = Type(t)
	cl, err := d.u16()
	if err != nil {
		return rr, err
	}
	rr.Class = Class(cl)
	ttl, err := d.u32()
	if err != nil {
		return rr, err
	}
	rr.TTL = ttl
	rdlen, err := d.u16()
	if err != nil {
		return rr, err
	}
	end := d.pos + int(rdlen)
	if end > len(d.buf) {
		return rr, ErrTruncatedMessage
	}
	switch rr.Type {
	case TypeA:
		if rdlen != 4 {
			return rr, fmt.Errorf("dnswire: A RDATA length %d", rdlen)
		}
		rr.A = netip.AddrFrom4([4]byte(d.buf[d.pos:end]))
		d.pos = end
	case TypeAAAA:
		if rdlen != 16 {
			return rr, fmt.Errorf("dnswire: AAAA RDATA length %d", rdlen)
		}
		rr.A = netip.AddrFrom16([16]byte(d.buf[d.pos:end]))
		d.pos = end
	case TypeCNAME, TypeNS, TypePTR:
		target, err := d.name()
		if err != nil {
			return rr, err
		}
		rr.Target = target
		if d.pos != end {
			return rr, fmt.Errorf("dnswire: trailing RDATA in %v record", rr.Type)
		}
	case TypeTXT:
		for d.pos < end {
			l := int(d.buf[d.pos])
			d.pos++
			if d.pos+l > end {
				return rr, ErrTruncatedMessage
			}
			rr.TXT = append(rr.TXT, string(d.buf[d.pos:d.pos+l]))
			d.pos += l
		}
	case TypeSOA:
		var soa SOAData
		if soa.MName, err = d.name(); err != nil {
			return rr, err
		}
		if soa.RName, err = d.name(); err != nil {
			return rr, err
		}
		for _, p := range []*uint32{&soa.Serial, &soa.Refresh, &soa.Retry, &soa.Expire, &soa.Minimum} {
			v, err := d.u32()
			if err != nil {
				return rr, err
			}
			*p = v
		}
		rr.SOA = &soa
		if d.pos != end {
			return rr, fmt.Errorf("dnswire: trailing RDATA in SOA record")
		}
	default:
		// Unknown types are skipped but preserved as empty records so
		// counts stay consistent.
		d.pos = end
	}
	return rr, nil
}

func (d *decoder) u16() (uint16, error) {
	if d.pos+2 > len(d.buf) {
		return 0, ErrTruncatedMessage
	}
	v := binary.BigEndian.Uint16(d.buf[d.pos:])
	d.pos += 2
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if d.pos+4 > len(d.buf) {
		return 0, ErrTruncatedMessage
	}
	v := binary.BigEndian.Uint32(d.buf[d.pos:])
	d.pos += 4
	return v, nil
}

// name reads a possibly-compressed domain name starting at d.pos,
// leaving d.pos just past the name in the original stream.
func (d *decoder) name() (string, error) {
	var sb strings.Builder
	pos := d.pos
	jumped := false
	hops := 0
	for {
		if pos >= len(d.buf) {
			return "", ErrTruncatedMessage
		}
		b := d.buf[pos]
		switch {
		case b == 0:
			if !jumped {
				d.pos = pos + 1
			}
			if sb.Len() == 0 {
				return ".", nil
			}
			return sb.String(), nil
		case b&0xC0 == 0xC0:
			if pos+2 > len(d.buf) {
				return "", ErrTruncatedMessage
			}
			ptr := int(binary.BigEndian.Uint16(d.buf[pos:]) & 0x3FFF)
			if !jumped {
				d.pos = pos + 2
			}
			if ptr >= pos {
				return "", ErrBadPointer
			}
			pos = ptr
			jumped = true
			hops++
			if hops > 32 {
				return "", ErrBadPointer
			}
		case b&0xC0 != 0:
			return "", ErrBadLabel
		default:
			l := int(b)
			if pos+1+l > len(d.buf) {
				return "", ErrTruncatedMessage
			}
			// The dotted form has no escapes, so a '.' inside a label
			// would read back as a label boundary.
			if bytes.IndexByte(d.buf[pos+1:pos+1+l], '.') >= 0 {
				return "", ErrBadLabel
			}
			sb.Write(d.buf[pos+1 : pos+1+l])
			sb.WriteByte('.')
			pos += 1 + l
			if sb.Len() > 255 {
				return "", ErrNameTooLong
			}
		}
	}
}

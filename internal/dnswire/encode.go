package dnswire

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// encoder packs a message with RFC 1035 §4.1.4 name compression.
type encoder struct {
	buf     []byte
	offsets map[string]int // canonical name → offset of its first occurrence
}

// Pack serializes the message to wire format.
func (m *Message) Pack() ([]byte, error) {
	e := &encoder{buf: make([]byte, 0, 512), offsets: make(map[string]int)}
	e.putHeader(m)
	for _, q := range m.Questions {
		if err := e.putName(q.Name); err != nil {
			return nil, err
		}
		e.putU16(uint16(q.Type))
		e.putU16(uint16(q.Class))
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for i := range sec {
			if err := e.putRR(&sec[i]); err != nil {
				return nil, err
			}
		}
	}
	return e.buf, nil
}

func (e *encoder) putHeader(m *Message) {
	var flags uint16
	if m.Header.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.Header.OpCode&0xF) << 11
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
	flags |= uint16(m.Header.RCode) & 0xF
	e.putU16(m.Header.ID)
	e.putU16(flags)
	e.putU16(uint16(len(m.Questions)))
	e.putU16(uint16(len(m.Answers)))
	e.putU16(uint16(len(m.Authority)))
	e.putU16(uint16(len(m.Additional)))
}

func (e *encoder) putU16(v uint16) {
	e.buf = binary.BigEndian.AppendUint16(e.buf, v)
}

func (e *encoder) putU32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// putName emits a possibly-compressed domain name with its bytes as
// given, so Unpack returns exactly the name that was packed. Names are
// case-insensitive but case-preserving; callers that want the
// canonical form pass it (NewQuery does).
func (e *encoder) putName(name string) error {
	if !strings.HasSuffix(name, ".") {
		name += "."
	}
	if len(name) > 255 {
		return ErrNameTooLong
	}
	for name != "" && name != "." {
		if off, ok := e.offsets[name]; ok && off < 0x3FFF {
			e.putU16(0xC000 | uint16(off))
			return nil
		}
		if len(e.buf) < 0x3FFF {
			e.offsets[name] = len(e.buf)
		}
		idx := strings.IndexByte(name, '.')
		label := name[:idx]
		if len(label) == 0 || len(label) > 63 {
			return fmt.Errorf("%w: %q", ErrBadLabel, label)
		}
		e.buf = append(e.buf, byte(len(label)))
		e.buf = append(e.buf, label...)
		name = name[idx+1:]
	}
	e.buf = append(e.buf, 0)
	return nil
}

func (e *encoder) putRR(rr *RR) error {
	if err := e.putName(rr.Name); err != nil {
		return err
	}
	e.putU16(uint16(rr.Type))
	e.putU16(uint16(rr.Class))
	e.putU32(rr.TTL)
	// Reserve RDLENGTH and patch it afterwards: compressed names in
	// RDATA have variable size.
	lenAt := len(e.buf)
	e.putU16(0)
	start := len(e.buf)
	switch rr.Type {
	case TypeA:
		if !rr.A.Is4() {
			return fmt.Errorf("dnswire: A record %q without IPv4 address", rr.Name)
		}
		b := rr.A.As4()
		e.buf = append(e.buf, b[:]...)
	case TypeAAAA:
		if !rr.A.Is6() {
			return fmt.Errorf("dnswire: AAAA record %q without IPv6 address", rr.Name)
		}
		b := rr.A.As16()
		e.buf = append(e.buf, b[:]...)
	case TypeCNAME, TypeNS, TypePTR:
		if err := e.putName(rr.Target); err != nil {
			return err
		}
	case TypeTXT:
		for _, s := range rr.TXT {
			if len(s) > 255 {
				return fmt.Errorf("dnswire: TXT string too long (%d bytes)", len(s))
			}
			e.buf = append(e.buf, byte(len(s)))
			e.buf = append(e.buf, s...)
		}
	case TypeSOA:
		soa := rr.SOA
		if soa == nil {
			return fmt.Errorf("dnswire: SOA record %q without data", rr.Name)
		}
		if err := e.putName(soa.MName); err != nil {
			return err
		}
		if err := e.putName(soa.RName); err != nil {
			return err
		}
		e.putU32(soa.Serial)
		e.putU32(soa.Refresh)
		e.putU32(soa.Retry)
		e.putU32(soa.Expire)
		e.putU32(soa.Minimum)
	default:
		return fmt.Errorf("dnswire: cannot encode RR type %v", rr.Type)
	}
	rdlen := len(e.buf) - start
	binary.BigEndian.PutUint16(e.buf[lenAt:], uint16(rdlen))
	return nil
}

package jsonrec

import (
	"net/netip"
	"strconv"
	"unicode/utf8"

	"repro/internal/dataset"
)

// prefixes holds `,"key":` for every key in keys, so the encoder
// writes the same table the decoder matches.
var prefixes = func() []string {
	p := make([]string, len(keys))
	for f, k := range keys {
		p[f] = `,"` + k + `":`
	}
	return p
}()

// AppendRecord appends r to dst as encoding/json marshals a
// dataset.URLRecord, minus the closing brace: the fields in tag order,
// zero omitempty fields left out, strings escaped as json.Marshal
// escapes them. The caller closes the object, so the JSONL export can
// add the line's kind first. It allocates nothing beyond growing dst.
func AppendRecord(dst []byte, r *dataset.URLRecord) []byte {
	dst = append(dst, '{')
	dst = append(dst, prefixes[fURL][1:]...)
	dst = appendString(dst, r.URL)
	dst = appendStringField(dst, fHost, r.Host)
	dst = appendStringField(dst, fCountry, r.Country)
	dst = appendStringField(dst, fRegion, string(r.Region))
	dst = append(dst, prefixes[fBytes]...)
	dst = strconv.AppendInt(dst, r.Bytes, 10)
	dst = append(dst, prefixes[fDepth]...)
	dst = strconv.AppendInt(dst, int64(r.Depth), 10)
	if r.Method != "" {
		dst = appendStringField(dst, fMethod, r.Method)
	}
	dst = append(dst, prefixes[fIP]...)
	dst = appendAddr(dst, r.IP)
	dst = append(dst, prefixes[fASN]...)
	dst = strconv.AppendInt(dst, int64(r.ASN), 10)
	dst = appendStringField(dst, fOrg, r.Org)
	dst = appendStringField(dst, fRegCountry, r.RegCountry)
	dst = appendTrue(dst, fGovAS, r.GovAS)
	dst = appendTrue(dst, fAnycast, r.Anycast)
	if r.ServeCountry != "" {
		dst = appendStringField(dst, fServeCountry, r.ServeCountry)
	}
	if r.GeoMethod != "" {
		dst = appendStringField(dst, fGeoMethod, r.GeoMethod)
	}
	dst = append(dst, prefixes[fCategory]...)
	dst = strconv.AppendInt(dst, int64(r.Category), 10)
	dst = appendTrue(dst, fTopsiteSelf, r.TopsiteSelf)
	dst = appendTrue(dst, fHTTPSValid, r.HTTPSValid)
	return dst
}

func appendStringField(dst []byte, f int, s string) []byte {
	return appendString(append(dst, prefixes[f]...), s)
}

// appendTrue writes an omitempty bool: only a true one appears.
func appendTrue(dst []byte, f int, v bool) []byte {
	if !v {
		return dst
	}
	return append(append(dst, prefixes[f]...), "true"...)
}

// appendAddr writes a as encoding/json writes a TextMarshaler: its
// text, empty for the zero Addr, as a JSON string. Only an IPv6 zone
// can hold bytes that need escaping, so the text is written in place
// and re-escaped in that rare case.
func appendAddr(dst []byte, a netip.Addr) []byte {
	dst = append(dst, '"')
	start := len(dst)
	dst = a.AppendTo(dst)
	for _, b := range dst[start:] {
		if b >= utf8.RuneSelf || !htmlSafe[b] {
			text := string(dst[start:])
			return appendString(dst[:start-1], text)
		}
	}
	return append(dst, '"')
}

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes encoding/json writes unescaped when it
// escapes HTML, as json.Marshal does: printable ASCII except the quote,
// the backslash and <, >, &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// appendString appends s as a JSON string exactly as json.Marshal
// writes it: \b \f \n \r \t and the quote and backslash get short
// escapes, other control bytes and <, >, & get \u00XX, each byte of
// invalid UTF-8 becomes \ufffd, and U+2028 and U+2029 are escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

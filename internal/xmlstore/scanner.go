package xmlstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"unicode/utf8"
)

// scanner tokenizes an XML document held in memory. Its token stream and
// its verdict are those of encoding/xml's Strict Decoder.Token: it rejects
// exactly the inputs Token rejects (mismatched end tags compared on the
// raw prefix:local name, invalid names, unquoted or missing attribute
// values, unknown or out-of-range character references, invalid UTF-8,
// characters outside the XML Char range, unterminated markup, a non-UTF-8
// encoding declaration) and yields the same elements, attributes and
// character data. FuzzRead holds it to that through the walker.
//
// Markup and references are found with bytes.IndexByte and bytes.Index,
// and character data is validated through the asciiClass table, with a
// rune-by-rune path only for non-ASCII bytes. Names and character data are
// returned as sub-slices of the input; decoding a text run (references,
// CR and CRLF → LF) is deferred to appendText, so data the walker skips is
// only validated. The scanner never makes a string of its input: callers
// copy what they keep.
type scanner struct {
	in        []byte
	pos       int      // offset of the next unread byte
	open      [][]byte // raw names of the open elements, innermost last
	closeNext bool     // the last start tag was <x/>: its end is the next token

	// The token just read.
	local []byte // kindStart: the local part of the element name
	attrs []attr // kindStart
	text  text   // kindText
}

// kind is the type of the token a scanner returns.
type kind uint8

const (
	kindEOF       kind = iota // end of input with no element open
	kindStart                 // start tag: scanner.local, scanner.attrs
	kindEnd                   // end tag, or the end half of <x/>
	kindText                  // character data or a CDATA section: scanner.text
	kindComment               // comment or processing instruction
	kindDirective             // <!DOCTYPE …> or another <!…> declaration
)

// text is a run of character data as it appears in the input.
type text struct {
	raw   []byte
	cdata bool // a CDATA section: '&' is literal
	plain bool // raw is already the decoded text
}

// attr is one attribute of a start tag.
type attr struct {
	local []byte // the local part of the attribute name
	value text
}

// reset points the scanner at a new document.
func (s *scanner) reset(in []byte) {
	s.in, s.pos, s.open, s.closeNext = in, 0, s.open[:0], false
}

// asciiClass classifies ASCII bytes; bytes >= utf8.RuneSelf have no bits.
var asciiClass = func() (t [utf8.RuneSelf]uint8) {
	for c := 0; c < utf8.RuneSelf; c++ {
		switch {
		case c == '&', c == ']', c == '<', c == '\r':
			// plainChar is clear: text checks them one by one.
		case c >= 0x20, c == '\t', c == '\n':
			t[c] |= plainChar
		}
		if 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_' || c == ':' {
			t[c] |= nameStart | nameChar
		}
		if '0' <= c && c <= '9' || c == '.' || c == '-' {
			t[c] |= nameChar
		}
	}
	return t
}()

const (
	plainChar = 1 << iota // a legal character that never needs decoding
	nameStart             // may start a name
	nameChar              // may continue a name
)

// mode selects the rules text applies to a run of character data.
type mode uint8

const (
	modeText  mode = iota // element content: references, and "]]>" is an error
	modeAttr              // a quoted attribute value: references, and '<' is an error
	modeCDATA             // a CDATA section: no references
)

// fail returns a syntax error located at input offset at.
func (s *scanner) fail(at int, msg string) error {
	line := 1 + bytes.Count(s.in[:min(at, len(s.in))], []byte{'\n'})
	return fmt.Errorf("XML syntax error on line %d: %s", line, msg)
}

func (s *scanner) eof() error { return s.fail(len(s.in), "unexpected EOF") }

// next reads the next token.
func (s *scanner) next() (kind, error) {
	if s.closeNext {
		s.closeNext = false
		s.open = s.open[:len(s.open)-1]
		return kindEnd, nil
	}
	in := s.in
	if s.pos >= len(in) {
		if len(s.open) > 0 {
			return 0, s.eof()
		}
		return kindEOF, nil
	}
	if in[s.pos] != '<' {
		// Indentation between tags is the most common text run: take it
		// without a search or a check.
		start, end := s.pos, s.pos
		for end < len(in) && (in[end] == '\n' || in[end] == ' ' || in[end] == '\t') {
			end++
		}
		if end < len(in) && in[end] == '<' {
			s.pos = end
			s.text = text{raw: in[start:end], plain: true}
			return kindText, nil
		}
		if j := bytes.IndexByte(in[end:], '<'); j < 0 {
			end = len(in)
		} else {
			end += j
		}
		s.pos = end
		return kindText, s.scanText(start, end, modeText, &s.text)
	}
	if s.pos+1 >= len(in) {
		return 0, s.eof()
	}
	switch in[s.pos+1] {
	case '/':
		return kindEnd, s.endTag()
	case '?':
		return kindComment, s.procInst()
	case '!':
		return s.bang()
	}
	return kindStart, s.startTag()
}

// space skips XML whitespace.
func (s *scanner) space() {
	for s.pos < len(s.in) {
		switch s.in[s.pos] {
		case ' ', '\r', '\n', '\t':
			s.pos++
		default:
			return
		}
	}
}

// name reads a name: a run of ASCII name bytes and non-ASCII bytes that
// must end before EOF, start with a name-start rune and be valid UTF-8.
func (s *scanner) name() ([]byte, error) {
	in, start := s.in, s.pos
	i, ascii := start, true
	for ; i < len(in); i++ {
		if c := in[i]; c >= utf8.RuneSelf {
			ascii = false
		} else if asciiClass[c]&nameChar == 0 {
			break
		}
	}
	if i == len(in) {
		return nil, s.eof()
	}
	name := in[start:i]
	if i == start {
		return nil, s.fail(start, "expected name")
	}
	if ascii && asciiClass[name[0]]&nameStart == 0 || !ascii && !isName(name) {
		return nil, s.fail(start, "invalid XML name: "+string(name))
	}
	s.pos = i
	return name, nil
}

// nsname reads a name and returns it whole and as its local part: the
// text after its one colon, unless that colon starts or ends the name. A
// name with two colons is an error.
func (s *scanner) nsname() (raw, local []byte, err error) {
	start := s.pos
	if raw, err = s.name(); err != nil {
		return nil, nil, err
	}
	i := bytes.IndexByte(raw, ':')
	if i >= 0 && bytes.IndexByte(raw[i+1:], ':') >= 0 {
		return nil, nil, s.fail(start, "invalid name "+string(raw))
	}
	if i <= 0 || i == len(raw)-1 {
		return raw, raw, nil
	}
	return raw, raw[i+1:], nil
}

// startTag reads <name attr="value" …> or <name …/>.
func (s *scanner) startTag() error {
	s.pos++
	raw, local, err := s.nsname()
	if err != nil {
		return err
	}
	s.attrs = s.attrs[:0]
	for {
		s.space()
		if s.pos >= len(s.in) {
			return s.eof()
		}
		if c := s.in[s.pos]; c == '>' || c == '/' {
			s.pos++
			if c == '/' {
				if s.pos >= len(s.in) {
					return s.eof()
				}
				if s.in[s.pos] != '>' {
					return s.fail(s.pos, "expected /> in element")
				}
				s.pos++
				s.closeNext = true
			}
			s.open = append(s.open, raw)
			s.local = local
			return nil
		}
		var a attr
		if _, a.local, err = s.nsname(); err != nil {
			return err
		}
		s.space()
		if s.pos >= len(s.in) {
			return s.eof()
		}
		if s.in[s.pos] != '=' {
			return s.fail(s.pos, "attribute name without = in element")
		}
		s.pos++
		s.space()
		if s.pos >= len(s.in) {
			return s.eof()
		}
		q := s.in[s.pos]
		if q != '"' && q != '\'' {
			return s.fail(s.pos, "unquoted or missing attribute value in element")
		}
		start := s.pos + 1
		end := bytes.IndexByte(s.in[start:], q)
		if end < 0 {
			return s.eof()
		}
		end += start
		if err := s.scanText(start, end, modeAttr, &a.value); err != nil {
			return err
		}
		s.pos = end + 1
		s.attrs = append(s.attrs, a)
	}
}

// endTag reads </name> and pops the element it closes.
func (s *scanner) endTag() error {
	s.pos += 2
	raw, local, err := s.nsname()
	if err != nil {
		return err
	}
	s.space()
	if s.pos >= len(s.in) {
		return s.eof()
	}
	if s.in[s.pos] != '>' {
		return s.fail(s.pos, "invalid characters between </"+string(local)+" and >")
	}
	s.pos++
	n := len(s.open)
	if n == 0 {
		return s.fail(s.pos, "unexpected end element </"+string(local)+">")
	}
	if !bytes.Equal(s.open[n-1], raw) {
		return s.fail(s.pos, "element <"+string(s.open[n-1])+"> closed by </"+string(raw)+">")
	}
	s.open = s.open[:n-1]
	return nil
}

// procInst reads <?target …?>. An <?xml …?> declaration must name
// version 1.0 (or none) and UTF-8 (or no encoding).
func (s *scanner) procInst() error {
	s.pos += 2
	target, err := s.name()
	if err != nil {
		return err
	}
	s.space()
	end := bytes.Index(s.in[s.pos:], []byte("?>"))
	if end < 0 {
		return s.eof()
	}
	content := s.in[s.pos : s.pos+end]
	s.pos += end + 2
	if string(target) != "xml" {
		return nil
	}
	c := string(content)
	if ver := procInstParam("version", c); ver != "" && ver != "1.0" {
		return fmt.Errorf("xml: unsupported version %q; only version 1.0 is supported", ver)
	}
	if enc := procInstParam("encoding", c); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return fmt.Errorf("xml: encoding %q declared but only UTF-8 is supported", enc)
	}
	return nil
}

// procInstParam returns the quoted value of param="…" or param='…' in
// the processing instruction content s, or "" — encoding/xml's procInst,
// quirks included.
func procInstParam(param, s string) string {
	param += "="
	lenp := len(param)
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || lenp+k >= len(sub) {
			return ""
		}
		i += lenp + k + 1
		if c := sub[lenp+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], sep)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// bang reads the markup that starts with "<!": a comment, a CDATA
// section or a directive.
func (s *scanner) bang() (kind, error) {
	in, i := s.in, s.pos+2
	if i >= len(in) {
		return 0, s.eof()
	}
	switch in[i] {
	case '-':
		if i+1 >= len(in) {
			return 0, s.eof()
		}
		if in[i+1] != '-' {
			return 0, s.fail(i, "invalid sequence <!- not part of <!--")
		}
		// The first "--" inside the comment must be its "-->".
		i += 2
		j := bytes.Index(in[i:], []byte("--"))
		if j < 0 || i+j+2 >= len(in) {
			return 0, s.eof()
		}
		if i += j + 2; in[i] != '>' {
			return 0, s.fail(i, `invalid sequence "--" not allowed in comments`)
		}
		s.pos = i + 1
		return kindComment, nil
	case '[':
		for k := 0; k < len("CDATA["); k++ {
			if i+1+k >= len(in) {
				return 0, s.eof()
			}
			if in[i+1+k] != "CDATA["[k] {
				return 0, s.fail(i, "invalid <![ sequence")
			}
		}
		start := i + 1 + len("CDATA[")
		end := bytes.Index(in[start:], []byte("]]>"))
		if end < 0 {
			return 0, s.fail(len(in), "unexpected EOF in CDATA section")
		}
		end += start
		s.pos = end + 3
		return kindText, s.scanText(start, end, modeCDATA, &s.text)
	}
	return kindDirective, s.directive(i + 1) // the byte after "<!" is taken literally
}

// directive skips the rest of a directive from offset i. As in
// encoding/xml it ends at the first '>' outside quotes that closes no
// nested '<', and a <!--…--> inside it is skipped whole.
func (s *scanner) directive(i int) error {
	in := s.in
	var quote byte
	depth := 0
	for {
		if i >= len(in) {
			return s.eof()
		}
		b := in[i]
		i++
		if quote == 0 && b == '>' && depth == 0 {
			s.pos = i
			return nil
		}
		// A '<' that does not open a comment hands the byte after it back
		// to this loop.
		for again := true; again; {
			again = false
			switch {
			case b == quote:
				quote = 0
			case quote != 0:
			case b == '\'' || b == '"':
				quote = b
			case b == '>':
				depth--
			case b == '<':
				k := 0
				for ; k < len("!--"); k++ {
					if i >= len(in) {
						return s.eof()
					}
					b = in[i]
					i++
					if b != "!--"[k] {
						break
					}
				}
				if k < len("!--") {
					depth++
					again = true
					continue
				}
				j := bytes.Index(in[i:], []byte("-->"))
				if j < 0 {
					return s.eof()
				}
				i += j + 3
			}
		}
	}
}

// scanText validates the character data in[start:end] under mode m and
// stores it in t.
func (s *scanner) scanText(start, end int, m mode, t *text) error {
	raw := s.in[start:end]
	plain := true
	for i := 0; i < len(raw); {
		if i+8 <= len(raw) && plain8(binary.LittleEndian.Uint64(raw[i:])) {
			i += 8
			continue
		}
		c := raw[i]
		if c < utf8.RuneSelf {
			if asciiClass[c]&plainChar != 0 {
				i++
				continue
			}
			switch {
			case c == '\r':
				plain = false
				i++
			case c == '&' && m != modeCDATA:
				n, _, err := reference(raw[i:])
				if err != "" {
					return s.fail(start+i, err)
				}
				plain = false
				i += n
			case c == ']' && m == modeText && bytes.HasPrefix(raw[i:], []byte("]]>")):
				return s.fail(start+i, "unescaped ]]> not in CDATA section")
			case c == '<' && m == modeAttr:
				return s.fail(start+i, "unescaped < inside quoted string")
			case c == '&', c == ']', c == '<':
				i++
			default:
				return s.fail(start+i, fmt.Sprintf("illegal character code %U", rune(c)))
			}
			continue
		}
		r, n := utf8.DecodeRune(raw[i:])
		if r == utf8.RuneError && n == 1 {
			return s.fail(start+i, "invalid UTF-8")
		}
		if r == 0xFFFE || r == 0xFFFF {
			return s.fail(start+i, fmt.Sprintf("illegal character code %U", r))
		}
		i += n
	}
	*t = text{raw: raw, cdata: m == modeCDATA, plain: plain}
	return nil
}

// plain8 reports whether the eight bytes packed in x need no check: each
// is ASCII from 0x20 up and none is '&', '<' or ']'. It tests them at
// once with the has-zero-byte and has-less-than-byte word tricks, which
// are exact.
func plain8(x uint64) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	zero := func(v uint64) uint64 { return (v - ones) & ^v & highs }
	return (x&highs |
		(x-0x20*ones)&^x&highs |
		zero(x^'&'*ones) | zero(x^'<'*ones) | zero(x^']'*ones)) == 0
}

// reference parses the character or entity reference at the start of b
// ("&…;") and returns its length and the rune it stands for. A reference
// is one of the five predefined entities or a decimal (&#…;) or
// lowercase-x hexadecimal (&#x…;) character number; a number above
// U+10FFFF or outside the XML Char range is an error, and a surrogate
// stands for U+FFFD, as in encoding/xml. err is "" when the reference is
// valid.
func reference(b []byte) (n int, r rune, err string) {
	if len(b) >= 2 && b[1] == '#' {
		i, base := 2, rune(10)
		if len(b) > i && b[i] == 'x' {
			i, base = 3, 16
		}
		digits := i
		for ; i < len(b); i++ {
			d := rune(-1)
			switch c := rune(b[i]); {
			case '0' <= c && c <= '9':
				d = c - '0'
			case base == 16 && 'a' <= c && c <= 'f':
				d = c - 'a' + 10
			case base == 16 && 'A' <= c && c <= 'F':
				d = c - 'A' + 10
			}
			if d < 0 {
				break
			}
			if r = r*base + d; r > utf8.MaxRune {
				r = utf8.MaxRune + 1 // saturate: stays out of range
			}
		}
		if i == digits || i >= len(b) || b[i] != ';' || r > utf8.MaxRune {
			return 0, 0, "invalid character entity " + string(b[:min(i+1, len(b))])
		}
		if 0xD800 <= r && r <= 0xDFFF {
			r = utf8.RuneError
		}
		if !inCharRange(r) {
			return 0, 0, fmt.Sprintf("illegal character code %U", r)
		}
		return i + 1, r, ""
	}
	for _, e := range [...]struct {
		name string
		r    rune
	}{{"&lt;", '<'}, {"&gt;", '>'}, {"&amp;", '&'}, {"&apos;", '\''}, {"&quot;", '"'}} {
		if bytes.HasPrefix(b, []byte(e.name)) {
			return len(e.name), e.r, ""
		}
	}
	end := bytes.IndexByte(b, ';')
	if end < 0 {
		end = min(len(b), 16)
	}
	return 0, 0, "invalid character entity " + string(b[:end])
}

// inCharRange reports whether r is in the XML Char production.
func inCharRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// appendText appends the decoded form of t to dst: references replaced
// and CR and CRLF turned into LF. t must have been validated by scanText.
func appendText(dst []byte, t text) []byte {
	raw := t.raw
	if t.plain {
		return append(dst, raw...)
	}
	for i := 0; i < len(raw); {
		j := i
		for j < len(raw) && raw[j] != '\r' && (t.cdata || raw[j] != '&') {
			j++
		}
		dst = append(dst, raw[i:j]...)
		if j == len(raw) {
			break
		}
		if raw[j] == '\r' {
			dst = append(dst, '\n')
			if j++; j < len(raw) && raw[j] == '\n' {
				j++
			}
		} else {
			n, r, _ := reference(raw[j:])
			dst = utf8.AppendRune(dst, r)
			j += n
		}
		i = j
	}
	return dst
}

package asm

import (
	"fmt"
	"math"
	"strings"
)

// ParseInt parses an assembler integer literal: optional sign, then
// decimal, 0x hexadecimal, or 0 octal. It returns ok=false for anything
// else (the caller decides whether that makes the operand symbolic),
// including a value that does not fit in an int64.
func ParseInt(text string) (int64, bool) {
	s := text
	neg := false
	switch {
	case strings.HasPrefix(s, "-"):
		neg = true
		s = s[1:]
	case strings.HasPrefix(s, "+"):
		s = s[1:]
	}
	if s == "" {
		return 0, false
	}
	var v uint64
	var ok bool
	switch {
	case strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X"):
		v, ok = digits(s[2:], 16)
	case len(s) > 1 && s[0] == '0':
		v, ok = digits(s[1:], 8)
	default:
		v, ok = digits(s, 10)
	}
	if !ok {
		return 0, false
	}
	return signed(v, neg)
}

// digits parses a nonempty run of base-base digits as an unsigned
// magnitude, failing on any other byte and on uint64 overflow.
func digits(s string, base uint64) (uint64, bool) {
	if s == "" {
		return 0, false
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		d, ok := hexDigit(s[i])
		if !ok || uint64(d) >= base || v > (math.MaxUint64-uint64(d))/base {
			return 0, false
		}
		v = v*base + uint64(d)
	}
	return v, true
}

// signed applies a sign to a parsed magnitude, failing when the result
// does not fit in an int64: 1<<63 fits only when negated.
func signed(mag uint64, neg bool) (int64, bool) {
	if neg {
		if mag > 1<<63 {
			return 0, false
		}
		return -int64(mag), true
	}
	if mag > math.MaxInt64 {
		return 0, false
	}
	return int64(mag), true
}

func hexDigit(c byte) (int, bool) {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0'), true
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10, true
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10, true
	}
	return 0, false
}

// DirString handles an `.asciz`/`.string` directive of the form
// `label: .asciz "text"`. The string is re-extracted from the raw line so
// comma splitting cannot corrupt it.
func DirString(u *Unit, arch string, line Line) error {
	if line.Label == "" {
		return Errf(arch, line.Num, "%s needs a label", line.Op)
	}
	raw := line.Raw
	first := strings.Index(raw, `"`)
	last := strings.LastIndex(raw, `"`)
	if first < 0 || last <= first {
		return Errf(arch, line.Num, "%s needs a quoted string", line.Op)
	}
	s, err := unescape(raw[first+1 : last])
	if err != nil {
		return Errf(arch, line.Num, "%v", err)
	}
	if u.Strings == nil {
		u.Strings = map[string]string{}
	}
	u.Strings[line.Label] = s
	return nil
}

func unescape(s string) (string, error) {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' {
			sb.WriteByte(c)
			continue
		}
		i++
		if i >= len(s) {
			return "", fmt.Errorf("trailing backslash in string")
		}
		switch s[i] {
		case 'n':
			sb.WriteByte('\n')
		case 't':
			sb.WriteByte('\t')
		case '0':
			sb.WriteByte(0)
		case '\\':
			sb.WriteByte('\\')
		case '"':
			sb.WriteByte('"')
		default:
			return "", fmt.Errorf("unknown escape \\%c", s[i])
		}
	}
	return sb.String(), nil
}

// EscapeString renders s as an assembler string literal body.
func EscapeString(s string) string {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\n':
			sb.WriteString(`\n`)
		case '\t':
			sb.WriteString(`\t`)
		case 0:
			sb.WriteString(`\0`)
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		default:
			sb.WriteByte(c)
		}
	}
	return sb.String()
}

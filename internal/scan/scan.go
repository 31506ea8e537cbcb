// Package scan holds the rune-aware lexical helpers shared by the
// three text parsers (internal/cq, internal/deps, internal/instance),
// and the one quoted-constant syntax all three read and write.
//
// The parsers historically scanned bytes and called unicode.IsLetter /
// unicode.IsSpace on single bytes cast to rune, which splits multi-byte
// UTF-8 runes mid-sequence: `q(é) :- R(é).` failed at a mid-rune offset
// after accepting an invalid-UTF-8 identifier fragment, and bytes like
// 0x85 (a UTF-8 continuation byte that happens to satisfy IsSpace as a
// rune) were skipped as whitespace. Centralizing the rune decoding here
// keeps the three grammars' notions of "identifier", "digit" and
// "whitespace" identical — the consistency contract the torture corpus
// pins down.
//
// Every parser first rejects input that is not valid UTF-8 (CheckUTF8)
// with a clear byte-offset error; the helpers below may then assume
// well-formed input.
package scan

import (
	"errors"
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// CheckUTF8 rejects input that is not valid UTF-8, reporting the byte
// offset of the first invalid sequence. Parsers call this once at
// entry; accepting broken encodings would let invalid identifier
// fragments become canonical keys that JSON layers later mangle to
// U+FFFD — a key-collision hazard.
func CheckUTF8(s string) error {
	if utf8.ValidString(s) {
		return nil
	}
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size <= 1 {
			return fmt.Errorf("input is not valid UTF-8 at byte offset %d", i)
		}
		i += size
	}
	return fmt.Errorf("input is not valid UTF-8")
}

// IsIdentStart reports whether r can begin an identifier.
func IsIdentStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }

// IsIdentRune reports whether r can continue an identifier.
func IsIdentRune(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// SkipSpace returns the offset of the first non-space rune at or after
// pos (or len(s)).
func SkipSpace(s string, pos int) int {
	for pos < len(s) {
		r, size := utf8.DecodeRuneInString(s[pos:])
		if !unicode.IsSpace(r) {
			return pos
		}
		pos += size
	}
	return pos
}

// Ident scans an identifier starting exactly at pos. It returns the
// identifier, the offset past it, and whether one was present.
func Ident(s string, pos int) (id string, end int, ok bool) {
	if pos >= len(s) {
		return "", pos, false
	}
	r, size := utf8.DecodeRuneInString(s[pos:])
	if !IsIdentStart(r) {
		return "", pos, false
	}
	start := pos
	pos += size
	for pos < len(s) {
		r, size = utf8.DecodeRuneInString(s[pos:])
		if !IsIdentRune(r) {
			break
		}
		pos += size
	}
	return s[start:pos], pos, true
}

// Digits scans a nonempty run of digit runes starting exactly at pos.
func Digits(s string, pos int) (lit string, end int, ok bool) {
	start := pos
	for pos < len(s) {
		r, size := utf8.DecodeRuneInString(s[pos:])
		if !unicode.IsDigit(r) {
			break
		}
		pos += size
	}
	if pos == start {
		return "", start, false
	}
	return s[start:pos], pos, true
}

// IsIdent reports whether s consists of exactly one identifier — the
// predicate-name validity check shared by the instance parser and
// Dump.
func IsIdent(s string) bool {
	id, end, ok := Ident(s, 0)
	return ok && end == len(s) && id == s
}

var (
	errUnterminatedQuote = errors.New("unterminated quoted constant")
	errBadEscape         = errors.New(`bad escape in quoted constant (only \\ and \' are defined)`)
)

// Quoted reads the quoted constant that starts exactly at pos, where
// s holds a single quote. Queries, dependencies and databases share
// this one syntax: any runes between single quotes, with \' and \\ as
// the only escapes; two adjacent quotes are the empty constant. It
// returns the constant's name and the offset past the closing quote.
// A name without escapes is a slice of s; only an escape makes Quoted
// copy. On error, end is the offset the error refers to: the opening
// quote of an unterminated constant, or the backslash of a bad escape.
func Quoted(s string, pos int) (name string, end int, err error) {
	var esc []byte // the name decoded so far, once it holds an escape
	start := pos + 1
	for i := start; i < len(s); i++ {
		switch s[i] {
		case '\'':
			if esc == nil {
				return s[start:i], i + 1, nil
			}
			return string(append(esc, s[start:i]...)), i + 1, nil
		case '\\':
			if i+1 == len(s) || (s[i+1] != '\'' && s[i+1] != '\\') {
				return "", i, errBadEscape
			}
			esc = append(append(esc, s[start:i]...), s[i+1])
			i++
			start = i + 1
		}
	}
	return "", pos, errUnterminatedQuote
}

// WriteQuoted writes name as a quoted constant, escaping every ' and \
// — the exact inverse of Quoted.
func WriteQuoted(b *strings.Builder, name string) {
	b.WriteByte('\'')
	for {
		i := strings.IndexAny(name, `'\`)
		if i < 0 {
			break
		}
		b.WriteString(name[:i])
		b.WriteByte('\\')
		b.WriteByte(name[i])
		name = name[i+1:]
	}
	b.WriteString(name)
	b.WriteByte('\'')
}

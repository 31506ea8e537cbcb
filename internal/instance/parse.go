package instance

import (
	"fmt"
	"unicode"
	"unicode/utf8"

	"semacyclic/internal/scan"
	"semacyclic/internal/term"
)

// Parse reads ground atoms like "R(a,b). S(c)." into an instance;
// arguments are constants. It is the exact inverse of Dump and the
// parser behind the facade's ParseDatabase and the semacycd instance
// registry.
//
// Grammar (whitespace, including newlines, is free between tokens):
//
//	database  = atom+
//	atom      = ident "(" [ constant { "," constant } ] ")" "."
//	constant  = bare | quoted
//	bare      = one or more runes, none of ( ) , . ' \ or whitespace
//	quoted    = "'" { any rune except ' and \ | "\\'" | "\\\\" } "'"
//
// Quoting lets a constant carry any character — periods, commas,
// parentheses, quotes (escaped \'), backslashes (escaped \\), spaces,
// even newlines — and two adjacent quotes are the empty constant. The
// quoted form is the one constant syntax queries and dependencies
// share (scan.Quoted), so every constant of a dumped database can be
// named in a rule.
// Predicate names must be identifiers, matching what the cq/deps
// parsers can reference.
// Input must be valid UTF-8. The scanner is quote-aware end to end:
// the historical implementation split the input on every '.', which
// broke any constant containing a period (R('v1.2').) and silently
// mis-parsed quoted commas — the first parse-torture corpus cases
// freeze those inputs.
func Parse(input string) (*Instance, error) {
	atoms, err := ParseAtoms(input)
	if err != nil {
		return nil, err
	}
	if len(atoms) == 0 {
		return nil, fmt.Errorf("instance: empty database")
	}
	return FromAtoms(atoms...)
}

// ParseAtoms reads ground atoms in Parse's grammar into a list,
// preserving text order (and duplicates) and performing no arity or
// schema validation — the delta-parsing primitive behind PATCH
// /instances, where arity checking belongs to ApplyDelta so clashes
// surface as ErrArityClash rather than parse errors. Empty input
// yields an empty list.
func ParseAtoms(input string) ([]Atom, error) {
	if err := scan.CheckUTF8(input); err != nil {
		return nil, fmt.Errorf("instance: %w", err)
	}
	var atoms []Atom
	pos := 0
	for {
		pos = scan.SkipSpace(input, pos)
		if pos >= len(input) {
			break
		}
		pred, end, ok := scan.Ident(input, pos)
		if !ok {
			return nil, fmt.Errorf("instance: offset %d: expected predicate identifier", pos)
		}
		pos = scan.SkipSpace(input, end)
		if pos >= len(input) || input[pos] != '(' {
			return nil, fmt.Errorf("instance: offset %d: expected '(' after predicate %s", pos, pred)
		}
		pos = scan.SkipSpace(input, pos+1)
		var args []term.Term
		if pos < len(input) && input[pos] == ')' {
			pos++
		} else {
			for {
				name, next, err := parseConstant(input, pos)
				if err != nil {
					return nil, err
				}
				args = append(args, term.Const(name))
				pos = scan.SkipSpace(input, next)
				if pos < len(input) && input[pos] == ',' {
					pos = scan.SkipSpace(input, pos+1)
					continue
				}
				if pos < len(input) && input[pos] == ')' {
					pos++
					break
				}
				return nil, fmt.Errorf("instance: offset %d: expected ',' or ')' in argument list of %s", pos, pred)
			}
		}
		pos = scan.SkipSpace(input, pos)
		if pos >= len(input) || input[pos] != '.' {
			return nil, fmt.Errorf("instance: offset %d: expected '.' terminating atom %s(...)", pos, pred)
		}
		pos++
		atoms = append(atoms, NewAtom(pred, args...))
	}
	return atoms, nil
}

// parseConstant reads one argument starting exactly at pos: a quoted
// constant (scan.Quoted), or a bare run of delimiter-free runes.
func parseConstant(input string, pos int) (name string, end int, err error) {
	if pos < len(input) && input[pos] == '\'' {
		name, end, err := scan.Quoted(input, pos)
		if err != nil {
			return "", pos, fmt.Errorf("instance: offset %d: %w", end, err)
		}
		return name, end, nil
	}
	start := pos
	for pos < len(input) {
		r, size := utf8.DecodeRuneInString(input[pos:])
		if isConstDelim(r) || unicode.IsSpace(r) {
			break
		}
		pos += size
	}
	if pos == start {
		return "", start, fmt.Errorf("instance: offset %d: empty argument", start)
	}
	return input[start:pos], pos, nil
}

// isConstDelim reports whether r cannot appear in a bare constant; a
// name containing one must be quoted (Dump does so automatically).
func isConstDelim(r rune) bool {
	switch r {
	case '(', ')', ',', '.', '\'', '\\':
		return true
	}
	return false
}

// Predicates returns the instance's predicate names in sorted order
// with their atom counts — the summary the registry listing shows.
func (ins *Instance) Predicates() ([]string, map[string]int) {
	names := ins.predNames()
	counts := make(map[string]int, len(names))
	for _, p := range names {
		counts[p] = len(ins.byPred[p])
	}
	return names, counts
}

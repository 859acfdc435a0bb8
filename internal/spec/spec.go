// Package spec reads the declaration syntax that fault plans, cluster
// stream specs and workload scenarios share: a list of declarations, each
// "head:key=value,...", split at a separator each grammar chooses. It owns the
// lexical rules and the error wording, so the three grammars agree on
// every input; each grammar keeps only its heads, its keys and their
// types.
//
// The lexical rules: declarations and parameters are trimmed of white
// space, and empty ones are skipped (so a trailing separator or comma is
// harmless); the head ends at the first ':'; a parameter is key=value
// (split at the first '=') or a bare token. A grammar checks a
// declaration's keys before it reads any value, so an unknown key is
// reported as unknown whatever its value.
package spec

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Param is one parameter of a declaration: key=value, or a bare token
// (Bare set, the token in Key).
type Param struct {
	Key, Value string
	Bare       bool
}

// Decl is one declaration.
type Decl struct {
	Text   string // the whole trimmed declaration, for error messages
	Head   string // the trimmed text before the first ':'
	Colon  bool   // whether the declaration has a ':'
	Params []Param
}

// Split cuts s into its sep-separated declarations.
func Split(s, sep string) []Decl {
	out := make([]Decl, 0, strings.Count(s, sep)+1)
	for rest, more := s, true; more; {
		var text string
		text, rest, more = strings.Cut(rest, sep)
		if text = strings.TrimSpace(text); text == "" {
			continue
		}
		head, params, colon := strings.Cut(text, ":")
		d := Decl{Text: text, Head: strings.TrimSpace(head), Colon: colon}
		if params != "" {
			d.Params = make([]Param, 0, strings.Count(params, ",")+1)
		}
		for more := params != ""; more; {
			var p string
			p, params, more = strings.Cut(params, ",")
			if p = strings.TrimSpace(p); p == "" {
				continue
			}
			key, val, ok := strings.Cut(p, "=")
			d.Params = append(d.Params, Param{Key: strings.TrimSpace(key), Value: strings.TrimSpace(val), Bare: !ok})
		}
		out = append(out, d)
	}
	return out
}

// Check reports the first parameter of d that is a bare token other than
// one of bare, or whose key is not one of keys.
func (d Decl) Check(keys []string, bare ...string) error {
	for _, p := range d.Params {
		switch {
		case p.Bare && !slices.Contains(bare, p.Key):
			return fmt.Errorf("parameter %q is not key=value", p.Key)
		case !p.Bare && !slices.Contains(keys, p.Key):
			return Unknown("parameter", p.Key, keys)
		}
	}
	return nil
}

// Lookup returns the index of name in known, or the Unknown error.
func Lookup(what, name string, known []string) (int, error) {
	if i := slices.Index(known, name); i >= 0 {
		return i, nil
	}
	return -1, Unknown(what, name, known)
}

// Float reads the value of key as a finite number.
func Float(key, val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil && !math.IsInf(f, 0) { // out of range reads as ±Inf
		return 0, fmt.Errorf("%s=%q is not a number", key, val)
	}
	return f, Finite(key, f)
}

// Finite reports a NaN or infinite value of key, parsed or set in code.
func Finite(key string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%s=%v is not a finite number", key, v)
	}
	return nil
}

// Unknown is the error for a name that is not one of known: it lists the
// known names and, for a near miss, suggests the closest.
func Unknown(what, name string, known []string) error {
	return fmt.Errorf("unknown %s %q%s (known: %s)", what, name, DidYouMean(name, known), strings.Join(known, ", "))
}

// CheckName accepts a non-empty name of [A-Za-z0-9._+-] only, so a
// declared name never holds a separator or a metacharacter of any
// grammar.
func CheckName(name string) error {
	if name == "" {
		return errors.New("empty name")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '_' || r == '-' || r == '+':
		default:
			return fmt.Errorf("name %q has characters outside [A-Za-z0-9._+-]", name)
		}
	}
	return nil
}

// DidYouMean returns a ` (did you mean %q?)` hint when name is a close
// edit-distance miss of one of the known spellings, and "" otherwise.
func DidYouMean(name string, known []string) string {
	best, bestD := "", int(^uint(0)>>1)
	for _, n := range known {
		if d := editDistance(strings.ToLower(name), n); d < bestD {
			best, bestD = n, d
		}
	}
	if best != "" && bestD <= 1+len(name)/3 {
		return fmt.Sprintf(" (did you mean %q?)", best)
	}
	return ""
}

// editDistance is the Levenshtein distance between two ASCII strings.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

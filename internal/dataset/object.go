package dataset

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Field is a member WalkObject knows by name. A member with Into set is
// decoded into it by encoding/json; the others go to the callback.
type Field struct {
	Name string
	Into any
}

// WalkObject walks the members of the JSON object that is all of b but
// the whitespace around it. A member whose unescaped key names fields[k]
// is decoded into fields[k].Into or, that being nil, goes to scan(k, i),
// b[i] the first byte of its value: scan checks the value and returns the
// index just past it. Any other member is checked against the JSON grammar
// and skipped. What json.Unmarshal into a struct of these fields accepts
// WalkObject accepts, except a key that is a case variant of a name
// (encoding/json would fill the field from it), a name met twice, and a
// bare null (to encoding/json an empty object).
func WalkObject(b []byte, fields []Field, scan func(k, i int) (end int, err error)) error {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return fmt.Errorf("body is not a JSON object")
	}
	var seen uint64 // bit k: fields[k] was met
	i = skipSpace(b, i+1)
	// Only the first member may be missing: {} but not {"a":1,}.
	for first := true; !first || i == len(b) || b[i] != '}'; first = false {
		end, err := stringEnd(b, i)
		if err != nil {
			return err
		}
		key := b[i:end]
		k, err := matchName(key, fields)
		if err != nil {
			return err
		}
		if i = skipSpace(b, end); i == len(b) || b[i] != ':' {
			return fmt.Errorf("no ':' after the key %s", key)
		}
		if i = skipSpace(b, i+1); i == len(b) {
			return fmt.Errorf("no value for the key %s", key)
		}
		switch {
		case k >= 0 && seen&(1<<k) != 0:
			err = fmt.Errorf("duplicate key")
		case k >= 0 && fields[k].Into == nil:
			end, err = scan(k, i)
		default:
			if end, err = Value(b, i); err == nil && k >= 0 {
				err = json.Unmarshal(b[i:end], fields[k].Into)
			} else if err == nil && !json.Valid(b[i:end]) {
				err = fmt.Errorf("invalid JSON value")
			}
		}
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		if k >= 0 {
			seen |= 1 << k
		}
		if i = skipSpace(b, end); i < len(b) && b[i] == '}' {
			break
		}
		if i == len(b) || b[i] != ',' {
			return fmt.Errorf("no ',' or '}' after the value of %s", key)
		}
		i = skipSpace(b, i+1)
	}
	if i = skipSpace(b, i+1); i != len(b) {
		return fmt.Errorf("unexpected %q after the object", b[i])
	}
	return nil
}

// matchName returns the index of the field named by the key whose quoted
// text is given, -1 for a key that no name folds to.
func matchName(quoted []byte, fields []Field) (int, error) {
	key := quoted[1 : len(quoted)-1]
	for _, c := range key {
		if c == '\\' || c < ' ' || c >= 0x80 {
			// Escapes, bytes json replaces, bytes json refuses: its call.
			var s string
			if err := json.Unmarshal(quoted, &s); err != nil {
				return 0, fmt.Errorf("key %s: %w", quoted, err)
			}
			key = []byte(s)
			break
		}
	}
	for k, f := range fields {
		if string(key) == f.Name {
			return k, nil
		}
	}
	for _, f := range fields {
		if bytes.EqualFold(key, []byte(f.Name)) {
			return 0, fmt.Errorf("key %s is a case variant of %q", quoted, f.Name)
		}
	}
	return -1, nil
}

// Value returns the index just past the JSON value that starts at b[i]
// (i < len(b)), found by matching quotes and counting brackets only: the
// caller hands b[i:end] to encoding/json, which checks it. Nesting deeper
// than encoding/json accepts inside an object (10000 levels, the object
// counted) is an error here, as a sub-slice starts the count again.
func Value(b []byte, i int) (end int, err error) {
	switch b[i] {
	case '"':
		return stringEnd(b, i)
	case '[', '{':
		for depth := 0; i < len(b); i++ {
			switch b[i] {
			case '"':
				if i, err = stringEnd(b, i); err != nil {
					return 0, err
				}
				i--
			case '[', '{':
				if depth++; depth >= 10000 {
					return 0, fmt.Errorf("exceeded max depth")
				}
			case ']', '}':
				if depth--; depth == 0 {
					return i + 1, nil
				}
			}
		}
		return 0, fmt.Errorf("unterminated value")
	}
	// A number or a literal: up to the next byte that can follow one.
	for i < len(b) && b[i] != ',' && b[i] != '}' && b[i] != ']' && skipSpace(b, i) == i {
		i++
	}
	return i, nil
}

// stringEnd returns the index just past the string literal that starts
// at b[i].
func stringEnd(b []byte, i int) (int, error) {
	if i == len(b) || b[i] != '"' {
		return 0, fmt.Errorf("no string at byte %d", i)
	}
	for i++; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return i + 1, nil
		}
	}
	return 0, fmt.Errorf("unterminated string")
}

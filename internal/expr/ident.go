package expr

import "strings"

// keywords is the SQL dialect's reserved-word set. The lexer reads these
// as keywords in any letter case, so an identifier spelled like one must
// be quoted when rendered.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "LIMIT": true, "OFFSET": true,
	"AS": true, "AND": true, "OR": true, "NOT": true, "IN": true,
	"IS": true, "NULL": true, "LIKE": true, "BETWEEN": true,
	"JOIN": true, "INNER": true, "LEFT": true, "RIGHT": true, "OUTER": true,
	"CROSS": true, "ON": true, "UNION": true, "ALL": true, "DISTINCT": true,
	"INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true, "SET": true,
	"DELETE": true, "EXPLAIN": true, "ANALYZE": true, "CASE": true, "WHEN": true, "THEN": true,
	"ELSE": true, "END": true, "CAST": true, "EXISTS": true, "ASC": true,
	"DESC": true, "TRUE": true, "FALSE": true,
}

// maxKeywordLen is the length of the longest keyword.
const maxKeywordLen = 8

// IsKeyword reports whether the upper-cased word is a reserved word.
func IsKeyword(upper string) bool { return keywords[upper] }

// isKeywordFold reports whether word, in any letter case, is a reserved
// word. It upper-cases into a stack buffer: identifiers are rendered on
// every statement, and strings.ToUpper would allocate for each.
func isKeywordFold(word string) bool {
	if len(word) > maxKeywordLen {
		return false
	}
	var up [maxKeywordLen]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	//lint:ignore hotalloc the compiler indexes a map with a converted []byte key without copying it
	return keywords[string(up[:len(word)])]
}

// QuoteIdent renders an identifier so the SQL lexer reads it back as the
// same identifier: a plain name that is not a keyword stays bare,
// anything else is double-quoted with embedded quotes doubled.
func QuoteIdent(name string) string {
	if isPlainIdent(name) && !isKeywordFold(name) {
		return name
	}
	var b strings.Builder
	b.WriteByte('"')
	b.WriteString(strings.ReplaceAll(name, `"`, `""`))
	b.WriteByte('"')
	return b.String()
}

// isPlainIdent reports whether s lexes as one bare identifier:
// [A-Za-z_][A-Za-z0-9_]*.
func isPlainIdent(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '_' && (c < 'a' || c > 'z') && (c < 'A' || c > 'Z') && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return s != ""
}

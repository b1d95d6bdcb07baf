package sql

import "testing"

// FuzzParse parses arbitrary text. Parse must never panic, and any
// statement it accepts must render to text that parses back to the
// same rendering.
func FuzzParse(f *testing.F) {
	for _, src := range roundTripCorpus {
		f.Add(src)
	}
	f.Add("SELECT ((1)) FROM t WHERE NOT NOT a = -?")
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		canonical := stmt.String()
		again, err := Parse(canonical)
		if err != nil {
			t.Fatalf("rendering %q of %q does not parse: %v", canonical, src, err)
		}
		if again.String() != canonical {
			t.Fatalf("rendering of %q is not a fixed point:\n 1st %q\n 2nd %q", src, canonical, again.String())
		}
	})
}

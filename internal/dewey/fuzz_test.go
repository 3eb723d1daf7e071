package dewey

import "testing"

// FuzzParse checks the Dewey string parser: accepted inputs must round-trip
// through String, rejected inputs must not panic.
func FuzzParse(f *testing.F) {
	for _, s := range []string{"0.0", "1.0.2.3", "", "x", "0", "-1.0", "0.999999999999"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		id, err := Parse(s)
		if err != nil {
			return
		}
		if !id.IsValid() {
			t.Fatalf("Parse(%q) accepted invalid ID", s)
		}
		back, err := Parse(id.String())
		if err != nil || !Equal(back, id) {
			t.Fatalf("round trip failed for %q", s)
		}
	})
}

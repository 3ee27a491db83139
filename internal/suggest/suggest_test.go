package suggest

import "testing"

func TestClosest(t *testing.T) {
	names := []string{"auto", "serial", "parallel", "cpt"}
	for in, want := range map[string]string{
		"paralel":       "parallel",
		"faultparallel": "parallel",
		"serail":        "serial",
		"deductive":     "",
		"zzzzzzzz":      "",
		"x":             "",
	} {
		if got := Closest(in, names); got != want {
			t.Errorf("Closest(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestUnknown(t *testing.T) {
	for _, tc := range []struct {
		s     string
		names []string
		want  string
	}{
		{"ful", []string{"off", "full"}, `compact: unknown mode "ful" (did you mean "full"? want off or full)`},
		{"zzz", []string{"off", "reverse", "full"}, `compact: unknown mode "zzz" (want off, reverse or full)`},
		{"x", []string{"only"}, `compact: unknown mode "x" (want only)`},
	} {
		if got := Unknown("compact", "mode", tc.s, tc.names).Error(); got != tc.want {
			t.Errorf("Unknown(%q) = %s, want %s", tc.s, got, tc.want)
		}
	}
}

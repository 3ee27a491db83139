// Package suggest builds the toolkit's unknown-name errors: one
// Levenshtein did-you-mean rule shared by every name-valued flag and
// option (dftc subcommands, fault backends, compaction modes).
package suggest

import (
	"fmt"
	"strings"
)

// Closest returns the name nearest to s by edit distance, or "" when
// none is within half of s's length — close enough to be a typo rather
// than a different word.
func Closest(s string, names []string) string {
	best, bestDist := "", len(s)/2+1
	for _, n := range names {
		if d := distance(s, n); d < bestDist {
			best, bestDist = n, d
		}
	}
	return best
}

// Unknown is the error for an unrecognized name of the given kind:
// it lists the accepted names and, when one is Closest, suggests it.
// The prefix names the package or command reporting the error.
func Unknown(prefix, kind, s string, names []string) error {
	want := "want " + names[0]
	if n := len(names); n > 1 {
		want = "want " + strings.Join(names[:n-1], ", ") + " or " + names[n-1]
	}
	if sug := Closest(s, names); sug != "" {
		return fmt.Errorf("%s: unknown %s %q (did you mean %q? %s)", prefix, kind, s, sug, want)
	}
	return fmt.Errorf("%s: unknown %s %q (%s)", prefix, kind, s, want)
}

// distance is the Levenshtein distance between a and b.
func distance(a, b string) int {
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

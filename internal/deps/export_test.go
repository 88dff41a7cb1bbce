package deps

import "sort"

// SingleKeyed reports whether every nested set of the schema has at
// most one declared key (the common case; Corollary 3.3 applies).
func (s *Set) SingleKeyed() bool {
	count := make(map[string]int)
	for _, k := range s.Keys {
		count[k.Set.String()]++
		if count[k.Set.String()] > 1 {
			return false
		}
	}
	return true
}

// SortedMembers returns the members of a closure set, sorted.
func SortedMembers(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for a, ok := range m {
		if ok {
			out = append(out, a)
		}
	}
	sort.Strings(out)
	return out
}

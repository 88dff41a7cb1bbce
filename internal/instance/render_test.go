package instance_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"muse/internal/chase"
	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/scenarios"
)

// refString renders in as String did when it sorted a nested
// occurrence again under every tuple that references it: the reference
// the one-sort-per-occurrence renderer must match byte for byte.
func refString(in *instance.Instance) string {
	var b strings.Builder
	val := func(v instance.Value) string {
		if v == nil {
			return "_"
		}
		return v.String()
	}
	for _, st := range in.Cat.TopLevel() {
		if s := in.Set(instance.TopID(st)); s != nil {
			fmt.Fprintf(&b, "%s:\n", st.Path)
			refWriteSet(&b, in, s, "  ", val)
		}
	}
	referenced := make(map[*instance.SetVal]bool)
	for _, s := range in.AllSets() {
		for _, t := range s.View() {
			for i := range t.Set.SetFields {
				if ref, ok := t.ValAt(len(t.Set.Atoms) + i).(*instance.SetRef); ok {
					if child := in.Set(ref); child != nil {
						referenced[child] = true
					}
				}
			}
		}
	}
	for _, s := range in.AllSets() {
		if s.Type.Parent != nil && !referenced[s] {
			fmt.Fprintf(&b, "[unreferenced] %s:\n", s.ID)
			refWriteSet(&b, in, s, "  ", val)
		}
	}
	return b.String()
}

// refStringCompact renders in as StringCompact did, with the same
// re-sorting recursion as refString and the same short names: N1,
// N2, ... for Skolemized nulls and Fn#k for SetIDs, minted on first
// sight.
func refStringCompact(in *instance.Instance) string {
	var names instance.VecMap[string]
	nulls, sets := 0, make(map[string]int)
	val := func(v instance.Value) string {
		var mint func() string
		switch t := v.(type) {
		case nil:
			return "_"
		case *instance.Null:
			mint = func() string { nulls++; return fmt.Sprintf("N%d", nulls) }
			if len(t.Args) == 0 {
				return t.Fn
			}
		case *instance.SetRef:
			mint = func() string { sets[t.Fn]++; return fmt.Sprintf("%s#%d", t.Fn, sets[t.Fn]) }
			if len(t.Args) == 0 {
				return t.Fn
			}
		default:
			return v.String()
		}
		key := []instance.Value{v}
		name, ok := names.Get(key)
		if !ok {
			name = mint()
			names.Put(key, name)
		}
		return name
	}
	var b strings.Builder
	for _, st := range in.Cat.TopLevel() {
		if s := in.Set(instance.TopID(st)); s != nil {
			fmt.Fprintf(&b, "%s:\n", st.Path)
			refWriteSetCompact(&b, in, s, "  ", val)
		}
	}
	return b.String()
}

// refWriteSetCompact is StringCompact's recursion, which read slots by
// label.
func refWriteSetCompact(b *strings.Builder, in *instance.Instance, s *instance.SetVal, indent string, val func(instance.Value) string) {
	for _, t := range s.Sorted() {
		var parts []string
		for _, a := range t.Set.Atoms {
			parts = append(parts, val(t.Get(a)))
		}
		fmt.Fprintf(b, "%s(%s)\n", indent, strings.Join(parts, ", "))
		for _, f := range t.Set.SetFields {
			ref, ok := t.Get(f).(*instance.SetRef)
			if !ok {
				continue
			}
			fmt.Fprintf(b, "%s%s = %s:\n", indent+"  ", f, val(ref))
			if child := in.Set(ref); child != nil {
				refWriteSetCompact(b, in, child, indent+"    ", val)
			}
		}
	}
}

// refWriteSet is String's recursion, which read slots by position.
func refWriteSet(b *strings.Builder, in *instance.Instance, s *instance.SetVal, indent string, val func(instance.Value) string) {
	for _, t := range s.Sorted() {
		parts := make([]string, len(t.Set.Atoms))
		for i := range parts {
			parts[i] = val(t.ValAt(i))
		}
		fmt.Fprintf(b, "%s(%s)\n", indent, strings.Join(parts, ", "))
		for i, f := range t.Set.SetFields {
			ref, ok := t.ValAt(len(t.Set.Atoms) + i).(*instance.SetRef)
			if !ok {
				continue
			}
			fmt.Fprintf(b, "%s%s = %s:\n", indent+"  ", f, val(ref))
			if child := in.Set(ref); child != nil {
				refWriteSet(b, in, child, indent+"    ", val)
			}
		}
	}
}

// TestRenderRegroupedChase renders Sec. VI chases, as generated (most
// nested occurrences hold one tuple) and with every grouping function
// regrouped by no arguments (each nested occurrence is printed under
// every tuple of its parent set), and requires String and
// StringCompact to print the reference recursion's bytes.
func TestRenderRegroupedChase(t *testing.T) {
	for _, s := range scenarios.All() {
		set, err := s.Generate()
		if err != nil {
			t.Fatal(err)
		}
		src := s.NewInstance(0.003)
		for _, m := range set.Mappings {
			if m.Ambiguous() {
				m = m.Interpretation(make([]int, len(m.OrGroups)))
			}
			regrouped := m
			for _, sk := range m.SKs {
				regrouped = regrouped.WithSK(sk.SK.Fn, nil)
			}
			for name, m := range map[string]*mapping.Mapping{m.Name: m, m.Name + " regrouped": regrouped} {
				out, err := chase.ChaseCtx(context.Background(), src, nil, m)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := out.String(), refString(out); got != want {
					t.Errorf("%s/%s: String differs from the reference rendering", s.Name, name)
				}
				if got, want := out.StringCompact(), refStringCompact(out); got != want {
					t.Errorf("%s/%s: StringCompact differs from the reference rendering", s.Name, name)
				}
			}
		}
	}
}

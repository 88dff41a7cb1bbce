package parser

import (
	"fmt"
	"sort"
	"strings"

	"muse/internal/deps"
	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/nr"
)

// FormatSchema renders a schema in the document syntax.
func FormatSchema(cat *nr.Catalog) string {
	var b strings.Builder
	fmt.Fprintf(&b, "schema %s {\n", cat.Schema.Name)
	writeFields(&b, cat.Schema.Root.Fields, "  ")
	b.WriteString("}\n")
	return b.String()
}

func writeFields(b *strings.Builder, fields []nr.Field, indent string) {
	for i, f := range fields {
		fmt.Fprintf(b, "%s%s: ", indent, f.Label)
		writeType(b, f.Type, indent)
		if i < len(fields)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
}

func writeType(b *strings.Builder, t *nr.Type, indent string) {
	switch t.Kind {
	case nr.KindInt:
		b.WriteString("int")
	case nr.KindString:
		b.WriteString("string")
	case nr.KindSet:
		b.WriteString("set of ")
		writeType(b, t.Elem, indent)
	case nr.KindRecord, nr.KindChoice:
		if t.Kind == nr.KindRecord {
			b.WriteString("record {\n")
		} else {
			b.WriteString("choice {\n")
		}
		writeFields(b, t.Fields, indent+"  ")
		b.WriteString(indent)
		b.WriteString("}")
	}
}

// FormatDeps renders a constraint set in the document syntax.
func FormatDeps(d *deps.Set) string {
	var b strings.Builder
	name := d.Schema.Name
	for _, k := range d.Keys {
		fmt.Fprintf(&b, "key %s.%s(%s)\n", name, k.Set, strings.Join(k.Attrs, ", "))
	}
	for _, f := range d.FDs {
		fmt.Fprintf(&b, "fd %s.%s: %s -> %s\n", name, f.Set, strings.Join(f.From, ", "), strings.Join(f.To, ", "))
	}
	for _, r := range d.Refs {
		label := ""
		if r.Name != "" {
			label = r.Name + ": "
		}
		fmt.Fprintf(&b, "ref %s%s.%s(%s) -> %s.%s(%s)\n", label,
			name, r.FromSet, strings.Join(r.FromAttrs, ", "),
			name, r.ToSet, strings.Join(r.ToAttrs, ", "))
	}
	return b.String()
}

// FormatMapping renders a mapping in the document syntax (the paper's
// notation wrapped in "mapping name { ... }").
func FormatMapping(m *mapping.Mapping) string {
	var b strings.Builder
	fmt.Fprintf(&b, "mapping %s {\n", m.Name)
	body := m.Clone()
	body.Name = ""
	for _, line := range strings.Split(strings.TrimPrefix(body.String(), ": "), "\n") {
		fmt.Fprintf(&b, "  %s\n", line)
	}
	b.WriteString("}\n")
	return b.String()
}

// FormatInstance renders an instance in the document syntax. Nested
// sets are emitted inline under their parent tuples; SetIDs are not
// preserved (they are re-minted on parse), so round-tripping preserves
// the instance up to isomorphism.
func FormatInstance(name string, in *instance.Instance) string {
	var b strings.Builder
	fmt.Fprintf(&b, "instance %s of %s {\n", name, in.Schema.Name)
	for _, st := range in.Cat.TopLevel() {
		top := in.Set(instance.TopID(st))
		if top == nil || top.Len() == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %s:\n", st.Path)
		writeTuples(&b, in, top, "    ")
		b.WriteString("\n")
	}
	b.WriteString("}\n")
	return b.String()
}

func writeTuples(b *strings.Builder, in *instance.Instance, s *instance.SetVal, indent string) {
	tuples := s.Sorted()
	for ti, t := range tuples {
		b.WriteString(indent)
		b.WriteString("(")
		for i, a := range s.Type.Atoms {
			if i > 0 {
				b.WriteString(", ")
			}
			if v := t.Get(a); v != nil {
				fmt.Fprintf(b, "%q", v.String())
			} else {
				b.WriteString(`""`)
			}
		}
		b.WriteString(")")
		// Nested blocks.
		var nested []string
		for _, f := range s.Type.SetFields {
			if ref, ok := t.Get(f).(*instance.SetRef); ok {
				if child := in.Set(ref); child != nil && child.Len() > 0 {
					nested = append(nested, f)
				}
			}
		}
		if len(nested) > 0 {
			b.WriteString(" {\n")
			for _, f := range nested {
				ref := t.Get(f).(*instance.SetRef)
				fmt.Fprintf(b, "%s  %s:\n", indent, f)
				writeTuples(b, in, in.Set(ref), indent+"    ")
			}
			b.WriteString(indent)
			b.WriteString("}")
		}
		if ti < len(tuples)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
}

// FormatDocument renders a whole document: schemas, constraints,
// correspondences, mappings, and instances.
func FormatDocument(d *Document) string {
	var b strings.Builder
	var names []string
	for n := range d.Schemas {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.WriteString(FormatSchema(d.Schemas[n]))
		b.WriteString("\n")
	}
	for _, n := range names {
		if s := FormatDeps(d.Deps[n]); s != "" {
			b.WriteString(s)
			b.WriteString("\n")
		}
	}
	for _, c := range d.Corrs {
		fmt.Fprintf(&b, "correspondence %s.%s.%s -> %s.%s.%s\n",
			c.SrcSchema, c.Corr.SrcSet, c.Corr.SrcAttr,
			c.TgtSchema, c.Corr.TgtSet, c.Corr.TgtAttr)
	}
	if len(d.Corrs) > 0 {
		b.WriteString("\n")
	}
	for _, m := range d.Mappings {
		b.WriteString(FormatMapping(m))
		b.WriteString("\n")
	}
	var insts []string
	for n := range d.Instances {
		insts = append(insts, n)
	}
	sort.Strings(insts)
	for _, n := range insts {
		b.WriteString(FormatInstance(n, d.Instances[n]))
		b.WriteString("\n")
	}
	return b.String()
}

package load

import (
	"encoding/csv"
	"encoding/xml"
	"fmt"
	"io"
	"slices"
	"strings"

	"muse/internal/instance"
	"muse/internal/nr"
)

// CSV reads comma-separated rows into the named top-level set. When
// header is true, the first row names the attributes: each column name
// (whitespace-trimmed, quoting per encoding/csv) must be a distinct
// attribute of the set — duplicate columns are rejected, since the
// loader could only keep one of the conflicting values per row. The
// header may name a strict subset of the set's atoms, in any order;
// atoms not named stay unset on every loaded tuple (render as "_" and
// never satisfy equalities). Without a header, values are positional
// over all atoms.
func CSV(in *instance.Instance, setPath string, r io.Reader, header bool) error {
	st := in.Cat.ByPath(nr.ParsePath(setPath))
	if st == nil {
		return fmt.Errorf("load: schema %s has no set %q", in.Schema.Name, setPath)
	}
	if st.Parent != nil {
		return fmt.Errorf("load: set %q is nested; CSV loads top-level sets only", setPath)
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	// Records are read only within their iteration, and InternConst
	// clones each string it keeps, so one record slice serves them all.
	cr.ReuseRecord = true
	cols := st.Atoms
	slots := make([]int, len(cols))
	for i, name := range cols {
		slots[i] = st.Slot(name)
	}
	first := true
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("load: %s: %v", setPath, err)
		}
		if first && header {
			first = false
			cols = make([]string, len(rec))
			seen := make(map[string]int, len(rec))
			for i, name := range rec {
				name = strings.TrimSpace(name)
				if !st.HasAtom(name) {
					return fmt.Errorf("load: %s: header column %q is not an attribute", setPath, name)
				}
				if prev, dup := seen[name]; dup {
					return fmt.Errorf("load: %s: duplicate header column %q (columns %d and %d)", setPath, name, prev+1, i+1)
				}
				seen[name] = i
				cols[i] = name
			}
			slots = make([]int, len(cols))
			for i, name := range cols {
				slots[i] = st.Slot(name)
			}
			continue
		}
		first = false
		if len(rec) != len(cols) {
			return fmt.Errorf("load: %s: row has %d fields, want %d", setPath, len(rec), len(cols))
		}
		t := in.ScratchTuple(st)
		for i, v := range rec {
			t.PutSlot(slots[i], in.InternConst(v))
		}
		in.InsertUnique(in.Top(st), t)
	}
}

// WriteCSV writes a top-level set as CSV with a header row naming the
// atoms its tuples set. CSV cannot tell unset from empty, so an atom set
// on some tuples but not all, or a tuple setting none, is an error.
func WriteCSV(in *instance.Instance, setPath string, w io.Writer) error {
	st := in.Cat.ByPath(nr.ParsePath(setPath))
	if st == nil {
		return fmt.Errorf("load: schema %s has no set %q", in.Schema.Name, setPath)
	}
	tuples := in.Top(st).View()
	var cols []string
	for i, a := range st.Atoms {
		unset := slices.IndexFunc(tuples, func(t *instance.Tuple) bool { return t.ValAt(i) == nil })
		if unset < 0 {
			cols = append(cols, a)
		} else if slices.ContainsFunc(tuples, func(t *instance.Tuple) bool { return t.ValAt(i) != nil }) {
			return fmt.Errorf("load: %s: row %d leaves %q unset while other rows set it; CSV cannot tell unset from empty", setPath, unset+1, a)
		}
	}
	if len(cols) == 0 && len(tuples) > 0 {
		return fmt.Errorf("load: %s: row 1 sets no atom; CSV cannot write it", setPath)
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(cols); err != nil {
		return err
	}
	for _, t := range tuples {
		row := make([]string, len(cols))
		for i, a := range cols {
			row[i] = t.Get(a).String()
		}
		// A single empty column would serialize as a blank line, which
		// csv readers (ours included) skip — the tuple would vanish on
		// reload. Force quotes on that one degenerate shape.
		if len(row) == 1 && row[0] == "" {
			cw.Flush()
			if err := cw.Error(); err != nil {
				return err
			}
			if _, err := io.WriteString(w, "\"\"\n"); err != nil {
				return err
			}
			continue
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// XML parses an XML document into an instance of the catalog's schema.
// The expected shape mirrors the schema: a root element named after
// the schema, one element per tuple named after its set field, atom
// elements inside (dotted atoms nest per segment), and repeated nested
// elements for child sets:
//
//	<DBLP1>
//	  <Articles>
//	    <akey>conf/1</akey><title>...</title>
//	    <AuthorsOf><name>Alice</name></AuthorsOf>
//	  </Articles>
//	</DBLP1>
func XML(cat *nr.Catalog, r io.Reader) (*instance.Instance, error) {
	in := instance.New(cat)
	dec := xml.NewDecoder(r)
	counter := 0
	root, err := nextStart(dec)
	if err != nil {
		return nil, fmt.Errorf("load: no root element: %v", err)
	}
	if root.Name.Local != cat.Schema.Name {
		return nil, fmt.Errorf("load: root element %q, want schema name %q", root.Name.Local, cat.Schema.Name)
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return in, nil
		}
		if err != nil {
			return nil, err
		}
		switch el := tok.(type) {
		case xml.StartElement:
			st := cat.ByPath(nr.ParsePath(el.Name.Local))
			if st == nil || st.Parent != nil {
				return nil, fmt.Errorf("load: unexpected element <%s> under the root", el.Name.Local)
			}
			t, err := decodeTuple(cat, dec, in, st, &counter)
			if err != nil {
				return nil, err
			}
			in.InsertTop(st, t)
		case xml.EndElement:
			return in, nil
		}
	}
}

// decodeTuple reads a tuple's children until the closing tag.
func decodeTuple(cat *nr.Catalog, dec *xml.Decoder, in *instance.Instance, st *nr.SetType, counter *int) (*instance.Tuple, error) {
	// Arena-backed: the tuple is inserted into (and retained by) in.
	t := in.NewTuple(st)
	// Nested sets share one occurrence per parent tuple.
	refs := make(map[string]*instance.SetRef)
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		switch el := tok.(type) {
		case xml.StartElement:
			label := el.Name.Local
			switch {
			case st.HasSetField(label):
				child := cat.ByPath(append(st.Path.Clone(), nr.ParsePath(label)...))
				ref := refs[label]
				if ref == nil {
					*counter++
					ref = instance.NewSetRef(child.SKName(), instance.CI(*counter))
					refs[label] = ref
					t.Put(label, ref)
					in.EnsureSet(child, ref)
				}
				ct, err := decodeTuple(cat, dec, in, child, counter)
				if err != nil {
					return nil, err
				}
				in.Insert(child, ref, ct)
			default:
				if err := decodeAtomInto(dec, label, st, in, t); err != nil {
					return nil, err
				}
			}
		case xml.EndElement:
			// Unfilled nested fields get fresh empty occurrences.
			for _, f := range st.SetFields {
				if t.Get(f) == nil {
					child := cat.ByPath(append(st.Path.Clone(), nr.ParsePath(f)...))
					*counter++
					ref := instance.NewSetRef(child.SKName(), instance.CI(*counter))
					t.Put(f, ref)
					in.EnsureSet(child, ref)
				}
			}
			return t, nil
		}
	}
}

// decodeAtomInto reads one atom (or record wrapper) element into the
// tuple; nested elements extend the dotted attribute label
// (<address><city>…</city></address> → "address.city").
func decodeAtomInto(dec *xml.Decoder, label string, st *nr.SetType, in *instance.Instance, t *instance.Tuple) error {
	var text strings.Builder
	sawChild := false
	for {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		switch el := tok.(type) {
		case xml.CharData:
			text.Write(el)
		case xml.StartElement:
			sawChild = true
			if err := decodeAtomInto(dec, label+"."+el.Name.Local, st, in, t); err != nil {
				return err
			}
		case xml.EndElement:
			if sawChild {
				return nil
			}
			if !st.HasAtom(label) {
				return fmt.Errorf("load: set %s has no atom %q", st, label)
			}
			t.Put(label, in.InternConst(strings.TrimSpace(text.String())))
			return nil
		}
	}
}

func nextStart(dec *xml.Decoder) (xml.StartElement, error) {
	for {
		tok, err := dec.Token()
		if err != nil {
			return xml.StartElement{}, err
		}
		if el, ok := tok.(xml.StartElement); ok {
			return el, nil
		}
	}
}

// WriteXML renders the instance as an XML document in the shape XML
// parses. Nested occurrences are emitted under the tuples that
// reference them.
func WriteXML(in *instance.Instance, w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "<%s>\n", in.Schema.Name)
	for _, st := range in.Cat.TopLevel() {
		for _, t := range in.Top(st).Tuples() {
			writeTupleXML(&b, in, st, t, "  ")
		}
	}
	fmt.Fprintf(&b, "</%s>\n", in.Schema.Name)
	_, err := io.WriteString(w, b.String())
	return err
}

func writeTupleXML(b *strings.Builder, in *instance.Instance, st *nr.SetType, t *instance.Tuple, indent string) {
	fmt.Fprintf(b, "%s<%s>\n", indent, st.Name)
	for _, a := range st.Atoms {
		if v := t.Get(a); v != nil {
			writeAtomXML(b, a, v.String(), indent+"  ")
		}
	}
	for _, f := range st.SetFields {
		ref, ok := t.Get(f).(*instance.SetRef)
		if !ok {
			continue
		}
		child := in.Cat.ByPath(append(st.Path.Clone(), nr.ParsePath(f)...))
		if occ := in.Set(ref); occ != nil {
			for _, ct := range occ.Tuples() {
				writeTupleXML(b, in, child, ct, indent+"  ")
			}
		}
	}
	fmt.Fprintf(b, "%s</%s>\n", indent, st.Name)
}

// writeAtomXML emits an atom, expanding dotted labels into nested
// elements.
func writeAtomXML(b *strings.Builder, label, val, indent string) {
	segs := strings.Split(label, ".")
	for i, s := range segs[:len(segs)-1] {
		fmt.Fprintf(b, "%s<%s>", indent+strings.Repeat("  ", i), s)
		b.WriteString("\n")
	}
	var esc strings.Builder
	xml.EscapeText(&esc, []byte(val))
	fmt.Fprintf(b, "%s<%s>%s</%s>\n", indent+strings.Repeat("  ", len(segs)-1), segs[len(segs)-1], esc.String(), segs[len(segs)-1])
	for i := len(segs) - 2; i >= 0; i-- {
		fmt.Fprintf(b, "%s</%s>\n", indent+strings.Repeat("  ", i), segs[i])
	}
}

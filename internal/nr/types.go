package nr

import (
	"fmt"
	"strings"
)

// Kind discriminates the NR type constructors.
type Kind int

const (
	// KindString is the atomic string type.
	KindString Kind = iota
	// KindInt is the atomic integer type.
	KindInt
	// KindRecord is the record constructor Rcd[l1:t1, ..., ln:tn].
	KindRecord
	// KindSet is the set constructor SetOf t.
	KindSet
	// KindChoice is the variant constructor Choice[l1:t1, ..., ln:tn].
	KindChoice
)

// String returns the constructor name as written in the paper.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "String"
	case KindInt:
		return "Int"
	case KindRecord:
		return "Rcd"
	case KindSet:
		return "SetOf"
	case KindChoice:
		return "Choice"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Type is an NR type. Exactly one of the composite slots is used
// depending on Kind: Fields for records and choices, Elem for sets.
// Atomic types carry neither. Types are immutable after construction;
// share them freely.
type Type struct {
	Kind   Kind
	Fields []Field // KindRecord, KindChoice
	Elem   *Type   // KindSet
}

// Field is a labeled component of a record or choice type.
type Field struct {
	Label string
	Type  *Type
}

var (
	stringType = &Type{Kind: KindString}
	intType    = &Type{Kind: KindInt}
)

// StringType returns the shared atomic String type.
func StringType() *Type { return stringType }

// IntType returns the shared atomic Int type.
func IntType() *Type { return intType }

// Record constructs a record type from the given fields.
func Record(fields ...Field) *Type {
	return &Type{Kind: KindRecord, Fields: fields}
}

// SetOf constructs a set type with the given element type.
func SetOf(elem *Type) *Type {
	return &Type{Kind: KindSet, Elem: elem}
}

// Choice constructs a choice (variant) type from the given fields.
func Choice(fields ...Field) *Type {
	return &Type{Kind: KindChoice, Fields: fields}
}

// F is shorthand for constructing a Field.
func F(label string, t *Type) Field { return Field{Label: label, Type: t} }

// Field returns the field with the given label and true, or a zero
// Field and false if t is not a record/choice or has no such field.
func (t *Type) Field(label string) (Field, bool) {
	if t.Kind != KindRecord && t.Kind != KindChoice {
		return Field{}, false
	}
	for _, f := range t.Fields {
		if f.Label == label {
			return f, true
		}
	}
	return Field{}, false
}

// String renders the type using the paper's grammar, e.g.
// "Rcd[cid: Int, cname: String]".
func (t *Type) String() string {
	var b strings.Builder
	t.write(&b)
	return b.String()
}

func (t *Type) write(b *strings.Builder) {
	switch t.Kind {
	case KindString, KindInt:
		b.WriteString(t.Kind.String())
	case KindSet:
		b.WriteString("SetOf ")
		t.Elem.write(b)
	case KindRecord, KindChoice:
		b.WriteString(t.Kind.String())
		b.WriteByte('[')
		for i, f := range t.Fields {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(f.Label)
			b.WriteString(": ")
			f.Type.write(b)
		}
		b.WriteByte(']')
	}
}

// Equal reports structural equality of two types.
func Equal(a, b *Type) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindString, KindInt:
		return true
	case KindSet:
		return Equal(a.Elem, b.Elem)
	case KindRecord, KindChoice:
		if len(a.Fields) != len(b.Fields) {
			return false
		}
		for i := range a.Fields {
			if a.Fields[i].Label != b.Fields[i].Label || !Equal(a.Fields[i].Type, b.Fields[i].Type) {
				return false
			}
		}
		return true
	}
	return false
}

package codegen

import (
	"fmt"
	"slices"
	"strings"

	"muse/internal/mapping"
	"muse/internal/nr"
)

// DDL emits CREATE TABLE statements for the shredded form of a target
// schema.
func DDL(cat *nr.Catalog) string {
	var b strings.Builder
	for _, st := range cat.Sets {
		fmt.Fprintf(&b, "CREATE TABLE %s (\n", tableName(st))
		var cols []string
		if st.Parent != nil {
			cols = append(cols, "  __sid VARCHAR")
		}
		for _, a := range st.Atoms {
			cols = append(cols, fmt.Sprintf("  %s VARCHAR", columnName(a)))
		}
		for _, f := range st.SetFields {
			cols = append(cols, fmt.Sprintf("  %s__sid VARCHAR", columnName(f)))
		}
		b.WriteString(strings.Join(cols, ",\n"))
		b.WriteString("\n);\n")
	}
	return b.String()
}

// SQL emits one INSERT ... SELECT per target set populated by the
// (unambiguous, relational-source) mapping.
func SQL(m *mapping.Mapping) (string, error) {
	if m.Ambiguous() {
		return "", fmt.Errorf("codegen: mapping %s is ambiguous; select an interpretation first", m.Name)
	}
	info, err := m.Analyze()
	if err != nil {
		return "", err
	}
	for _, g := range m.For {
		if g.Parent != "" {
			return "", fmt.Errorf("codegen: mapping %s ranges over the nested set %s.%s; SQL generation requires a relational source", m.Name, g.Parent, g.Field)
		}
	}

	from, where := fromWhere(m)
	slots := solveTargetSlots(m, info)

	var b strings.Builder
	fmt.Fprintf(&b, "-- mapping %s\n", m.Name)
	for _, g := range m.Exists {
		st := info.TgtVars[g.Var]
		var cols, exprs []string
		if g.Parent != "" {
			// The row's occurrence: the parent's SetID for this field.
			parentSK := m.SKForSet(mapping.E(g.Parent, g.Field))
			if parentSK == nil {
				return "", fmt.Errorf("codegen: mapping %s has no grouping function for %s.%s", m.Name, g.Parent, g.Field)
			}
			cols = append(cols, "__sid")
			exprs = append(exprs, skolemExpr(parentSK.SK))
		}
		for _, a := range st.Atoms {
			cols = append(cols, columnName(a))
			exprs = append(exprs, slots[slotKey(g.Var, a)])
		}
		for _, f := range st.SetFields {
			sk := m.SKForSet(mapping.E(g.Var, f))
			if sk == nil {
				return "", fmt.Errorf("codegen: mapping %s has no grouping function for %s.%s", m.Name, g.Var, f)
			}
			cols = append(cols, columnName(f)+"__sid")
			exprs = append(exprs, skolemExpr(sk.SK))
		}
		fmt.Fprintf(&b, "INSERT INTO %s (%s)\nSELECT DISTINCT %s\nFROM %s",
			tableName(st), strings.Join(cols, ", "), strings.Join(exprs, ", "), from)
		if where != "" {
			fmt.Fprintf(&b, "\nWHERE %s", where)
		}
		b.WriteString(";\n")
	}
	return b.String(), nil
}

// Script emits the DDL followed by the SQL of every mapping of a set.
func Script(set *mapping.Set) (string, error) {
	var b strings.Builder
	b.WriteString(DDL(set.Tgt))
	b.WriteString("\n")
	for _, m := range set.Mappings {
		sql, err := SQL(m)
		if err != nil {
			return "", err
		}
		b.WriteString(sql)
		b.WriteString("\n")
	}
	return b.String(), nil
}

func fromWhere(m *mapping.Mapping) (string, string) {
	var tables []string
	for _, g := range m.For {
		tables = append(tables, fmt.Sprintf("%s AS %s", strings.ReplaceAll(g.Root.String(), ".", "_"), g.Var))
	}
	// The satisfy clause and the where clause's implied equalities
	// select the rows the chase fires on.
	var conds []string
	for _, q := range append(slices.Clip(m.ForSat), m.FeedEqs()...) {
		conds = append(conds, fmt.Sprintf("%s.%s = %s.%s", q.L.Var, columnName(q.L.Attr), q.R.Var, columnName(q.R.Attr)))
	}
	return strings.Join(tables, ", "), strings.Join(conds, " AND ")
}

// solveTargetSlots resolves each target atom slot to a SQL expression:
// the first source column feeding it (directly or through
// exists-satisfy equalities), as in the chase, or NULL.
func solveTargetSlots(m *mapping.Mapping, info *mapping.Info) map[string]string {
	tgt := mapping.NewClasses(m.ExistsSat)
	feed := make(map[mapping.Expr]string)
	for _, q := range m.Where {
		if root := tgt.Find(q.R); feed[root] == "" {
			feed[root] = q.L.Var + "." + columnName(q.L.Attr)
		}
	}
	out := make(map[string]string)
	for _, v := range info.TgtOrder {
		for _, a := range info.TgtVars[v].Atoms {
			if expr, ok := feed[tgt.Find(mapping.E(v, a))]; ok {
				out[slotKey(v, a)] = expr
			} else {
				out[slotKey(v, a)] = "NULL"
			}
		}
	}
	return out
}

func slotKey(v, a string) string { return v + "\x00" + a }

// skolemExpr renders a grouping term as an ANSI string concatenation,
// mirroring the chase's SetID rendering.
func skolemExpr(t mapping.SKTerm) string {
	if len(t.Args) == 0 {
		return fmt.Sprintf("'%s()'", t.Fn)
	}
	parts := []string{fmt.Sprintf("'%s('", t.Fn)}
	for i, a := range t.Args {
		if i > 0 {
			parts = append(parts, "','")
		}
		parts = append(parts, a.Var+"."+columnName(a.Attr))
	}
	parts = append(parts, "')'")
	return strings.Join(parts, " || ")
}

func tableName(st *nr.SetType) string {
	return strings.ReplaceAll(st.Path.String(), ".", "_")
}

func columnName(attr string) string {
	return strings.ReplaceAll(attr, ".", "_")
}

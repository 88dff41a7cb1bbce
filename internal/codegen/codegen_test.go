package codegen_test

import (
	"strings"
	"testing"

	"muse/internal/codegen"
	"muse/internal/mapping"
	"muse/internal/scenarios"
)

func TestDDLShreddedTarget(t *testing.T) {
	f := scenarios.NewFigure1(false)
	ddl := codegen.DDL(f.Tgt)
	for _, want := range []string{
		"CREATE TABLE Orgs (",
		"CREATE TABLE Orgs_Projects (",
		"CREATE TABLE Employees (",
		"__sid VARCHAR",         // nested table carries its occurrence id
		"Projects__sid VARCHAR", // Orgs carries the SetID column
	} {
		if !strings.Contains(ddl, want) {
			t.Errorf("DDL missing %q:\n%s", want, ddl)
		}
	}
	// Top-level tables have no __sid of their own.
	orgsTable := ddl[strings.Index(ddl, "CREATE TABLE Orgs ("):strings.Index(ddl, "CREATE TABLE Employees")]
	if strings.Contains(strings.SplitN(orgsTable, "Projects__sid", 2)[0], "  __sid") {
		t.Errorf("top-level table should not carry __sid:\n%s", orgsTable)
	}
}

func TestSQLForM2(t *testing.T) {
	f := scenarios.NewFigure1(false)
	sql, err := codegen.SQL(f.M2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"INSERT INTO Orgs (oname, Projects__sid)",
		"INSERT INTO Orgs_Projects (__sid, pname, manager)",
		"INSERT INTO Employees (eid, ename)",
		"FROM Companies AS c, Projects AS p, Employees AS e",
		"WHERE p.cid = c.cid AND e.eid = p.manager",
		"'SKProjects(' || c.cid",
		"SELECT DISTINCT",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL missing %q:\n%s", want, sql)
		}
	}
	// The exists-satisfy equality routes e.eid into the project's
	// manager column.
	projInsert := sql[strings.Index(sql, "INSERT INTO Orgs_Projects"):]
	projInsert = projInsert[:strings.Index(projInsert, ";")]
	if !strings.Contains(projInsert, "e.eid") {
		t.Errorf("p1.manager should be fed by e.eid via the exists-satisfy join:\n%s", projInsert)
	}
}

// TestSQLMultiFeed: feeding o.oname from both c.cname and e.ename
// implies c.cname = e.ename, and the generated SQL selects only the
// rows on which it holds, as the chase fires only on them.
func TestSQLMultiFeed(t *testing.T) {
	f := scenarios.NewFigure1(false)
	m := f.M2.Clone()
	m.Where = append(m.Where, mapping.Eq{L: mapping.E("e", "ename"), R: mapping.E("o", "oname")})
	sql, err := codegen.SQL(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"WHERE p.cid = c.cid AND e.eid = p.manager AND c.cname = e.ename",
		"SELECT DISTINCT c.cname, 'SKProjects(' ||",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL missing %q:\n%s", want, sql)
		}
	}
}

func TestSQLNullsForUncovered(t *testing.T) {
	// m1 covers only oname; the Projects SetID column is still minted.
	f := scenarios.NewFigure1(false)
	sql, err := codegen.SQL(f.M1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "SELECT DISTINCT c.cname, 'SKProjects(' || c.cid || ',' || c.cname || ',' || c.location || ')'") {
		t.Errorf("m1 select wrong:\n%s", sql)
	}
}

func TestSQLRejectsAmbiguousAndNested(t *testing.T) {
	f4 := scenarios.NewFigure4()
	if _, err := codegen.SQL(f4.MA); err == nil {
		t.Error("ambiguous mapping accepted")
	}
	// A nested-source mapping (DBLP) is rejected with a clear error.
	dblp, err := scenarios.DBLP().Generate()
	if err != nil {
		t.Fatal(err)
	}
	var nested *mapping.Mapping
	for _, m := range dblp.Mappings {
		for _, g := range m.For {
			if g.Parent != "" {
				nested = m
			}
		}
	}
	if nested == nil {
		t.Fatal("no nested-source mapping in DBLP")
	}
	if _, err := codegen.SQL(nested); err == nil || !strings.Contains(err.Error(), "relational source") {
		t.Errorf("nested source not rejected properly: %v", err)
	}
}

func TestScriptWholeScenario(t *testing.T) {
	f := scenarios.NewFigure1(false)
	script, err := codegen.Script(f.Set)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(script, "CREATE TABLE") != 3 {
		t.Errorf("script should create 3 tables:\n%s", script)
	}
	for _, m := range []string{"-- mapping m1", "-- mapping m2", "-- mapping m3"} {
		if !strings.Contains(script, m) {
			t.Errorf("script missing %q", m)
		}
	}
	// Deterministic.
	script2, _ := codegen.Script(f.Set)
	if script != script2 {
		t.Error("script generation not deterministic")
	}
}

func TestSQLForGeneratedAmalgam(t *testing.T) {
	// The Amalgam scenario is fully relational: every generated mapping
	// compiles to SQL.
	set, err := scenarios.Amalgam().Generate()
	if err != nil {
		t.Fatal(err)
	}
	script, err := codegen.Script(set)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(script, "INSERT INTO") < len(set.Mappings) {
		t.Errorf("expected at least one INSERT per mapping:\n%d inserts", strings.Count(script, "INSERT INTO"))
	}
}

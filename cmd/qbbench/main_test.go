package main

import (
	"strings"
	"testing"
)

// TestUnknownExperimentFails: a name outside the list runs nothing and
// fails, naming the accepted values.
func TestUnknownExperimentFails(t *testing.T) {
	var out strings.Builder
	err := run(&out, "table99", false, 1)
	if err == nil || !strings.Contains(err.Error(), "table2") {
		t.Fatalf("run(table99) = %v, want an error listing the experiments", err)
	}
	if out.Len() != 0 {
		t.Fatalf("an unknown experiment printed %q", out.String())
	}
}

// TestTable2PrintsBothTables: table2 reproduces the paper's Tables II and
// III, the naive and the QB adversarial views of the same three queries,
// and nothing else.
func TestTable2PrintsBothTables(t *testing.T) {
	var out strings.Builder
	if err := run(&out, "table2", false, 1); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if n := strings.Count(got, "== "); n != 2 {
		t.Fatalf("table2 printed %d tables, want 2:\n%s", n, got)
	}
	for _, title := range []string{"== Table II: adversarial views, naive", "== Table III: adversarial views under QB"} {
		if !strings.Contains(got, title) {
			t.Errorf("table2 output lacks %q:\n%s", title, got)
		}
	}
	for _, q := range []string{"E259", "E101", "E199"} {
		if strings.Count(got, q) < 2 {
			t.Errorf("query %s is not a row of both tables:\n%s", q, got)
		}
	}
}

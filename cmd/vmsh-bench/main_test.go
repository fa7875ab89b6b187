package main

import (
	"strings"
	"testing"

	"vmsh/internal/ledger"
)

func TestParseOnly(t *testing.T) {
	want, err := parseOnly(" E1,e9 ,e11")
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 3 || !want["e1"] || !want["e9"] || !want["e11"] {
		t.Fatalf("selected %v", want)
	}
	if want, err := parseOnly(""); err != nil || len(want) != 0 {
		t.Fatalf("empty spec: %v, %v", want, err)
	}
	for _, spec := range []string{"e99", "none", "e1,", "e1,e12"} {
		if _, err := parseOnly(spec); err == nil || !strings.Contains(err.Error(), "e7n") {
			t.Errorf("%q: want an error listing the valid ids, got %v", spec, err)
		}
	}
}

func TestPrintRows(t *testing.T) {
	var b strings.Builder
	printRows(&b, experiment{id: "e4", title: "Figure 5"}, []ledger.Row{
		{Exp: "e4", Key: "average", Value: 1.6604, Unit: "x", Kind: ledger.Cost, Paper: 1.5},
		{Exp: "e4", Key: "worst_bench", Value: "Fio: Rand write, 2MB", Unit: "text", Kind: ledger.Invariant},
		{Exp: "e4", Key: "events", Value: 107.0, Unit: "events", Kind: ledger.Cost},
		{Exp: "e4", Key: "ok", Value: true, Unit: "bool", Kind: ledger.Invariant},
	})
	for _, want := range []string{
		"== E4 — Figure 5 ==\n",
		" 1.66 x  [paper ~1.50]\n",
		` "Fio: Rand write, 2MB" text` + "\n",
		" 107 events\n",
		" true bool\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("missing %q in:\n%s", want, b.String())
		}
	}
}

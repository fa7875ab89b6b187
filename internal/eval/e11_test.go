package eval

import (
	"testing"

	"vmsh/internal/ledger"
)

func TestE11Migration(t *testing.T) {
	tbl, doc, err := RunMigration(42)
	if err != nil {
		if tbl != nil {
			t.Log("\n" + tbl.Format())
		}
		t.Fatal(err)
	}
	t.Log("\n" + tbl.Format())
	if len(doc.Legs) != 2*len(e11DirtyRates) {
		t.Fatalf("want %d sweep legs, got %d", 2*len(e11DirtyRates), len(doc.Legs))
	}
}

// sameRows fails unless a and b are well-formed ledgers ((exp, key)
// unique, every kind valid) that encode to the same bytes — what lets
// benchdiff gate BENCH_vtime.json at threshold 0.
func sameRows(t *testing.T, a, b []ledger.Row) {
	t.Helper()
	if len(a) == 0 {
		t.Fatal("no ledger rows")
	}
	ja, err := ledger.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := ledger.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("ledger rows not deterministic:\n%s\n%s", ja, jb)
	}
}

// TestE11Deterministic: same seed, identical E11 rows.
func TestE11Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full migration sweeps")
	}
	_, a, err := RunMigration(42)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := RunMigration(42)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, a.Rows(), b.Rows())
}

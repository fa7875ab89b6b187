package eval

import (
	"sync"
	"testing"

	"vmsh/internal/ledger"
)

// firstMigration is the first seed-42 migration sweep. TestE11Migration
// checks it and TestE11Deterministic compares a rerun against it, so
// tier-1 runs the sweep at most twice.
var firstMigration = sync.OnceValues(func() (*MigrationResult, error) {
	return RunMigration(42)
})

// TestE11Migration runs the migration sweep, whose claims RunMigration
// hard-checks.
func TestE11Migration(t *testing.T) {
	doc, err := firstMigration()
	if err != nil {
		t.Fatal(err)
	}
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
	a, err := firstMigration()
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMigration(42)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, a.Rows(), b.Rows())
}

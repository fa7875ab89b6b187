package eval

import "testing"

func TestE10RecordReplay(t *testing.T) {
	rows, err := RunRecordReplay(42)
	for _, r := range rows {
		t.Logf("%s = %v %s", r.Key, r.Value, r.Unit)
	}
	if err != nil {
		t.Fatal(err)
	}
}

package main

import (
	"strings"
	"testing"
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

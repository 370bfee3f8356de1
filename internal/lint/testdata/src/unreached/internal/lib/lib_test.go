package lib

import "testing"

// The analyzer loads no test file: these uses do not reach anything, and
// these stores set nothing.
func TestOnly(t *testing.T) {
	var _ testOnlyType
	if OnlyTested() != 1 || Helper() != 2 {
		t.Fatal("fixture")
	}
	c := Config{Never: 1, Kept: 2, Unjustified: 3}
	_ = c
}

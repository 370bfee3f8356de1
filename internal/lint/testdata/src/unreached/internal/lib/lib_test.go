package lib

import "testing"

// The analyzer loads no test file: these uses do not reach anything.
func TestOnly(t *testing.T) {
	var _ testOnlyType
	if OnlyTested() != 1 || Helper() != 2 {
		t.Fatal("fixture")
	}
}

package lib

import "testing"

func TestTestOnly(t *testing.T) {
	if testOnly() != 2 {
		t.Fatal("testOnly")
	}
}

package main

import (
	"os"
	"reflect"
	"testing"
)

// TestFindsTestOnlyUnexportedFunc runs the checker on the fixture
// module under testdata: of its three funcs, only the unexported one
// that nothing but the package's own test calls is dead.
func TestFindsTestOnlyUnexportedFunc(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("testdata/mod"); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	dead, err := find()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"lib/lib.go:10: lib.testOnly"}; !reflect.DeepEqual(dead, want) {
		t.Errorf("dead = %q, want %q", dead, want)
	}
}

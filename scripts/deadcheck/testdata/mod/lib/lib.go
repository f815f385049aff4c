// Package lib is deadcheck's fixture: one func the program reaches
// through an export, and one only the package's own test calls.
package lib

// Used is what the program calls.
func Used() int { return live() }

func live() int { return 1 }

func testOnly() int { return 2 }

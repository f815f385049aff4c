//go:build nnparanoid

package nn

const paranoid = true

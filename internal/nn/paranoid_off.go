//go:build !nnparanoid

package nn

// paranoid is set by the nnparanoid build tag (`make nnparanoid`): every
// reuse of a layer's weight-side state re-derives the levels from the
// float weights and panics on a mismatch (weightSide.recheck).
const paranoid = false

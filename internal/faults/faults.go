// Package faults models hardware faults in AppMult lookup tables. The
// retraining framework consumes multipliers exclusively through product
// LUTs (appmult.BuildLUT), so a faulty multiplier — a stuck SRAM cell
// in the accelerator's table memory, a radiation-induced bit flip, a
// marginal sense amplifier — is a mutation of LUT entries. This package
// provides a seeded, reproducible fault model (stuck-at-0, stuck-at-1,
// bit flips; configurable rate and bit-position distribution; permanent
// or transient), injectors for product LUTs and gradient tables, and a
// sweep evaluator that measures accuracy degradation as the fault rate
// grows. cmd/paper's faultsweep_mul8u_rm8_small artifact drives it end
// to end.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/appmult/retrain/internal/bitutil"
	"github.com/appmult/retrain/internal/gradient"
)

// Kind is the fault class applied to a single bit of a table entry.
type Kind int

const (
	// StuckAt0 forces the bit to 0 (dominant SRAM defect mode).
	StuckAt0 Kind = iota
	// StuckAt1 forces the bit to 1.
	StuckAt1
	// BitFlip inverts the bit (soft-error model).
	BitFlip
)

// String names the kind for reports and flags.
func (k Kind) String() string {
	switch k {
	case StuckAt0:
		return "stuck0"
	case StuckAt1:
		return "stuck1"
	case BitFlip:
		return "bitflip"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// BitDist selects which product bits faults prefer.
type BitDist int

const (
	// BitsUniform draws the faulted bit uniformly over the entry width.
	BitsUniform BitDist = iota
	// BitsLow biases toward low-order bits (min of two uniform draws):
	// the benign end of the spectrum.
	BitsLow
	// BitsHigh biases toward high-order bits (max of two uniform
	// draws): the catastrophic end.
	BitsHigh
)

// String names the distribution for reports and flags.
func (d BitDist) String() string {
	switch d {
	case BitsUniform:
		return "uniform"
	case BitsLow:
		return "low"
	case BitsHigh:
		return "high"
	default:
		return fmt.Sprintf("BitDist(%d)", int(d))
	}
}

// Model is a seeded, reproducible fault configuration.
type Model struct {
	// Kind is the fault class.
	Kind Kind
	// Rate is the fraction of table entries faulted. The injector
	// faults exactly round(Rate*N) distinct entries so sweep points are
	// comparable across trials.
	Rate float64
	// Dist is the bit-position distribution within an entry.
	Dist BitDist
	// Seed makes the fault set reproducible. Two injectors built from
	// equal Models draw identical fault sets.
	Seed int64
	// Transient, when true, resamples the fault set on every Apply
	// (soft errors); otherwise the set is drawn once and persists for
	// the injector's lifetime (manufacturing/aging defects).
	Transient bool
}

// Fault is one injected defect: entry index, bit position, and class.
type Fault struct {
	Index int
	Bit   int
	Kind  Kind
}

// apply mutates one value according to the fault.
func (f Fault) apply(v uint32) uint32 {
	switch f.Kind {
	case StuckAt0:
		return v &^ (1 << uint(f.Bit))
	case StuckAt1:
		return v | (1 << uint(f.Bit))
	case BitFlip:
		return v ^ (1 << uint(f.Bit))
	default:
		panic(fmt.Sprintf("faults: unknown kind %d", int(f.Kind)))
	}
}

// sample draws round(Rate*n) distinct entry indices and a bit position
// each, over entries of entryBits width.
func (m Model) sample(rng *rand.Rand, n, entryBits int) []Fault {
	count := int(math.Round(m.Rate * float64(n)))
	if count < 0 {
		count = 0
	}
	if count > n {
		count = n
	}
	if count == 0 {
		return nil
	}
	// Partial Fisher-Yates: the first count slots are a uniform sample
	// without replacement.
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < count; i++ {
		j := i + rng.Intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	fs := make([]Fault, count)
	for i := 0; i < count; i++ {
		fs[i] = Fault{Index: perm[i], Bit: m.bit(rng, entryBits), Kind: m.Kind}
	}
	sort.Slice(fs, func(a, b int) bool { return fs[a].Index < fs[b].Index })
	return fs
}

func (m Model) bit(rng *rand.Rand, entryBits int) int {
	a := rng.Intn(entryBits)
	switch m.Dist {
	case BitsUniform:
		return a
	case BitsLow:
		if b := rng.Intn(entryBits); b < a {
			return b
		}
		return a
	case BitsHigh:
		if b := rng.Intn(entryBits); b > a {
			return b
		}
		return a
	default:
		panic(fmt.Sprintf("faults: unknown bit distribution %d", int(m.Dist)))
	}
}

// Injector applies a Model to product LUTs of one operand width. It is
// not safe for concurrent use; give each goroutine its own injector.
type Injector struct {
	model  Model
	opBits int
	fixed  []Fault // permanent fault set (nil when transient)
	rng    *rand.Rand
}

// NewInjector builds an injector for B-bit-operand product LUTs
// (entries are 2B bits wide).
func NewInjector(m Model, opBits int) *Injector {
	bitutil.CheckWidth(opBits)
	if m.Rate < 0 || m.Rate > 1 {
		panic(fmt.Sprintf("faults: rate %g outside [0,1]", m.Rate))
	}
	in := &Injector{model: m, opBits: opBits, rng: rand.New(rand.NewSource(m.Seed))}
	if !m.Transient {
		in.fixed = in.model.sample(in.rng, bitutil.NumPairs(opBits), 2*opBits)
	}
	return in
}

// Faulty returns a faulted copy of lut (the original is untouched)
// together with the fault set applied. Permanent injectors apply the
// same set every call; transient injectors resample.
func (in *Injector) Faulty(lut []uint32) ([]uint32, []Fault) {
	if want := bitutil.NumPairs(in.opBits); len(lut) != want {
		panic(fmt.Sprintf("faults: LUT has %d entries, want %d", len(lut), want))
	}
	fs := in.fixed
	if in.model.Transient {
		fs = in.model.sample(in.rng, len(lut), 2*in.opBits)
	}
	out := append([]uint32(nil), lut...)
	for _, f := range fs {
		out[f.Index] = f.apply(out[f.Index])
	}
	return out, fs
}

// FaultyTables returns a faulted copy of a gradient-table pair: faults
// hit the IEEE-754 bit patterns of the float32 entries (32-bit width),
// first across DW then DX as one address space. Faulted gradients may
// become NaN/Inf — that is the point: the train package's gradient
// guards are expected to absorb them.
func FaultyTables(t *gradient.Tables, m Model) (*gradient.Tables, []Fault) {
	if m.Rate < 0 || m.Rate > 1 {
		panic(fmt.Sprintf("faults: rate %g outside [0,1]", m.Rate))
	}
	rng := rand.New(rand.NewSource(m.Seed))
	n := len(t.DW) + len(t.DX)
	fs := m.sample(rng, n, 32)
	out := &gradient.Tables{
		Name: t.Name + "+faults", Bits: t.Bits, HWS: t.HWS,
		DW: append([]float32(nil), t.DW...),
		DX: append([]float32(nil), t.DX...),
	}
	for _, f := range fs {
		tbl := out.DW
		i := f.Index
		if i >= len(out.DW) {
			tbl, i = out.DX, i-len(out.DW)
		}
		tbl[i] = math.Float32frombits(f.apply(math.Float32bits(tbl[i])))
	}
	return out, fs
}

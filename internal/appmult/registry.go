package appmult

import (
	"github.com/appmult/retrain/internal/circuit"
	"github.com/appmult/retrain/internal/mulsynth"
	"github.com/appmult/retrain/internal/tech"
)

// PaperRow holds the values the paper's Table I reports for one
// multiplier, kept alongside our stand-ins so reports can print
// paper-vs-measured comparisons.
type PaperRow struct {
	AreaUM2     float64
	DelayPS     float64
	PowerUW     float64
	ERPercent   float64
	NMEDPercent float64
	MaxED       int64
}

// Entry is one registry row: a multiplier, its selected half window
// size for the difference-based gradient (0 for accurate multipliers,
// where it is not applicable), and the paper's reported
// characteristics.
type Entry struct {
	Mult Multiplier
	// HWS is the paper's selected half window size (Table I, last
	// column). Zero means not applicable.
	HWS int
	// Paper is the published Table I row for comparison.
	Paper PaperRow
	// HardwareOverride, when non-nil, replaces netlist/model
	// characterization (used for mul8u_1DMU, whose segmented
	// architecture our component model mischaracterizes at B=8; the
	// override carries the paper-anchored figures).
	HardwareOverride *Hardware
}

// Hardware characterizes the entry's multiplier, honouring the
// override if present.
func (e Entry) Hardware(lib *tech.Library, opt circuit.PowerOptions) Hardware {
	if e.HardwareOverride != nil {
		return *e.HardwareOverride
	}
	return Characterize(e.Mult, lib, opt)
}

// masked builds a registry stand-in from a fitted configuration
// produced by cmd/amfit: base truncation depth, extra deleted partial
// products, restored (kept-back) partial products, and compensation
// constant.
func masked(name string, bits, trunc int, extras, restores [][2]int, comp uint32) *Masked {
	m := mulsynth.TruncMask(bits, trunc)
	for _, e := range extras {
		m.Delete(e[0], e[1])
	}
	for _, r := range restores {
		m.Keep[r[0]][r[1]] = true
	}
	return NewMasked(name, m, comp)
}

// Registry returns the 18 multipliers of the paper's Table I
// (17 approximate/accurate rows plus mul6u_acc), in the paper's order.
// The "_rmk" and "_acc" rows are exact reconstructions; EvoApproxLib
// rows are fitted stand-ins generated with cmd/amfit; "_syn" rows are
// fitted stand-ins for the ALS tool's output (the live ALS pass in
// package mulsynth demonstrates the real flow at smaller widths);
// mul8u_1DMU is a DRUM-style segmented multiplier.
func Registry() []Entry {
	oneDMU := NewDRUM(8, 4).WithName("mul8u_1DMU")
	return []Entry{
		{Mult: NewAccurate(8), Paper: PaperRow{25.6, 730.1, 22.93, 0, 0, 0}},
		{Mult: masked("mul8u_syn1", 8, 6, [][2]int{{0, 6}, {1, 5}, {2, 4}, {3, 3}, {4, 2}, {5, 1}, {6, 0}}, [][2]int{{0, 5}}, 0),
			HWS: 16, Paper: PaperRow{13.0, 582.2, 9.68, 99.1, 0.28, 1937}},
		{Mult: masked("mul8u_syn2", 8, 6, [][2]int{{0, 6}, {1, 5}, {2, 4}, {3, 3}, {4, 2}, {5, 1}, {6, 0}}, nil, 0),
			HWS: 16, Paper: PaperRow{12.3, 577.7, 9.29, 99.5, 0.30, 2057}},
		{Mult: masked("mul8u_2NDH", 8, 7, [][2]int{{0, 7}, {1, 6}, {2, 5}}, nil, 0),
			HWS: 32, Paper: PaperRow{10.0, 512.6, 6.48, 98.7, 0.44, 2709}},
		{Mult: masked("mul8u_17C8", 8, 7, [][2]int{{0, 7}, {1, 6}, {2, 5}, {3, 4}, {4, 3}, {5, 2}}, [][2]int{{0, 6}}, 0),
			HWS: 16, Paper: PaperRow{7.7, 624.4, 5.01, 99.0, 0.56, 1577}},
		{Mult: oneDMU, HWS: 32,
			Paper:            PaperRow{15.6, 837.6, 11.09, 66.0, 0.65, 4084},
			HardwareOverride: &Hardware{AreaUM2: 17.8, DelayPS: 846.0, PowerUW: 11.6, Source: "reference"}},
		{Mult: masked("mul8u_17R6", 8, 7, [][2]int{{0, 7}, {1, 6}, {2, 5}, {3, 4}, {4, 3}, {5, 2}, {6, 1}, {7, 0}}, [][2]int{{0, 6}}, 0),
			HWS: 32, Paper: PaperRow{6.9, 743.3, 4.60, 99.0, 0.67, 1925}},
		{Mult: NewTruncated(8, 8), HWS: 16, Paper: PaperRow{11.6, 655.0, 9.19, 98.0, 0.68, 1793}},
		{Mult: NewAccurate(7), Paper: PaperRow{19.0, 695.0, 15.72, 0, 0, 0}},
		{Mult: masked("mul7u_06Q", 7, 5, [][2]int{{0, 5}}, nil, 0),
			HWS: 4, Paper: PaperRow{10.6, 861.9, 7.90, 95.4, 0.24, 162}},
		{Mult: masked("mul7u_073", 7, 5, [][2]int{{0, 5}, {1, 4}}, [][2]int{{0, 4}}, 0),
			HWS: 2, Paper: PaperRow{11.0, 889.8, 8.61, 95.2, 0.27, 154}},
		{Mult: NewTruncated(7, 6), HWS: 2, Paper: PaperRow{11.4, 599.0, 9.00, 96.1, 0.28, 273}},
		{Mult: masked("mul7u_syn1", 7, 5, [][2]int{{0, 5}, {1, 4}}, nil, 0),
			HWS: 8, Paper: PaperRow{11.5, 561.3, 9.06, 97.6, 0.28, 457}},
		{Mult: masked("mul7u_syn2", 7, 5, [][2]int{{0, 5}, {1, 4}, {2, 3}, {3, 2}}, nil, 0),
			HWS: 8, Paper: PaperRow{10.9, 532.4, 7.98, 98.8, 0.39, 713}},
		{Mult: masked("mul7u_081", 7, 5, [][2]int{{0, 5}, {1, 4}, {2, 3}, {3, 2}, {4, 1}, {5, 0}}, [][2]int{{0, 4}, {1, 3}}, 0),
			HWS: 16, Paper: PaperRow{10.7, 673.6, 7.67, 97.3, 0.45, 314}},
		{Mult: masked("mul7u_08E", 7, 5, [][2]int{{0, 5}, {1, 4}, {2, 3}, {3, 2}, {4, 1}, {5, 0}}, [][2]int{{0, 4}}, 0),
			HWS: 4, Paper: PaperRow{8.9, 612.5, 6.15, 97.5, 0.46, 317}},
		{Mult: NewAccurate(6), Paper: PaperRow{14.1, 680.1, 10.47, 0, 0, 0}},
		{Mult: NewTruncated(6, 4), HWS: 2, Paper: PaperRow{10.3, 563.9, 7.06, 81.3, 0.30, 49}},
	}
}

// Lookup returns the registry entry with the given multiplier name.
func Lookup(name string) (Entry, bool) {
	for _, e := range Registry() {
		if e.Mult.Name() == name {
			return e, true
		}
	}
	return Entry{}, false
}

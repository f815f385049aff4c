package gradient

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Estimator name constants: the registry keys ParseEstimator accepts
// and the labels recorded in Tables.Estimator, run metadata, and the
// train_runs_total / nn_estimator_ops_total metric series.
const (
	// EstSmoothDiff is the paper's smoothed-difference gradient
	// (Eqs. 4-6) — the repository default.
	EstSmoothDiff = "smoothdiff"
	// EstSTE is the straight-through baseline (Eq. 3).
	EstSTE = "ste"
	// EstCVSTE is the control-variate-corrected STE (Zervakis et al.,
	// arXiv 2412.16757): STE plus the mean multiplier-error slope.
	EstCVSTE = "cvste"
	// EstStochastic is seeded sampling of the raw difference quotient.
	EstStochastic = "stochastic"
	// EstRawDiff is the smoothing-off ablation (Section III-A).
	EstRawDiff = "rawdiff"
)

// MulInfo describes one multiplier to a GradEstimator: the behaviour
// to differentiate plus the registry metadata estimators may consume.
type MulInfo struct {
	// Name is the multiplier's registry name, recorded in table labels.
	Name string
	// Bits is the operand width B.
	Bits int
	// HWS is the registry-selected half window size for this
	// multiplier (Table I, last column; 0 when not applicable).
	// SmoothDiff uses it when not explicitly parameterized.
	HWS int
	// Mul is the multiplier behaviour AM(w, x).
	Mul MulFunc
}

// GradEstimator is the pluggable backward-rule seam: one estimator
// family turns a multiplier behaviour into the gradient-table pair the
// approximate layers' backward kernels consume. The forward pass is
// untouched — estimators differ only in the ∂AM/∂W and ∂AM/∂X tables
// they synthesize — so every estimator composes with every tier of the
// forward dispatch ladder (internal/nn/tiers.go) for free.
//
// Implementations must be deterministic: the same MulInfo (and, for
// seeded estimators, the same parameters) must produce bit-identical
// tables on every call, on every host. That property is what makes
// sharded and distributed retraining reproducible per estimator.
type GradEstimator interface {
	// Name returns the estimator's registry key (e.g. "smoothdiff").
	Name() string
	// Describe returns the full parameterization for run metadata and
	// EXPERIMENTS provenance (e.g. "smoothdiff(hws=8)",
	// "stochastic(seed=1,samples=4,radius=4)").
	Describe() string
	// Tables synthesizes the gradient-table pair for one multiplier.
	Tables(m MulInfo) *Tables
}

// SmoothDiff is the paper's smoothed-difference estimator (Eqs. 4-6)
// realized as a GradEstimator. The zero value defers to the
// registry-selected half window size of each multiplier; a positive
// HWS overrides it (the HWS selection protocol sweeps this field).
type SmoothDiff struct {
	// HWS overrides the multiplier's registry half window size when
	// > 0. Zero means "use MulInfo.HWS", clamped to [1, MaxHWS].
	HWS int
}

// Name returns "smoothdiff".
func (s SmoothDiff) Name() string { return EstSmoothDiff }

// Describe returns "smoothdiff" or "smoothdiff(hws=N)" for an
// explicit override.
func (s SmoothDiff) Describe() string {
	if s.HWS > 0 {
		return fmt.Sprintf("%s(hws=%d)", EstSmoothDiff, s.HWS)
	}
	return EstSmoothDiff
}

// EffectiveHWS resolves the half window size the estimator will use
// for a multiplier: the explicit override when set, else the
// registry-selected value, clamped to the admissible [1, MaxHWS(bits)]
// range (the clamp the pre-seam construction applied, so the default
// estimator stays bit-identical to it).
func (s SmoothDiff) EffectiveHWS(m MulInfo) int {
	hws := s.HWS
	if hws <= 0 {
		hws = m.HWS
	}
	if hws < 1 {
		hws = 1
	}
	if max := MaxHWS(m.Bits); hws > max {
		hws = max
	}
	return hws
}

// Tables builds the Eq. 4-6 difference tables at the effective HWS.
func (s SmoothDiff) Tables(m MulInfo) *Tables {
	return Difference(m.Name, m.Bits, s.EffectiveHWS(m), m.Mul)
}

// STEEstimator is the straight-through baseline (Eq. 3) realized as a
// GradEstimator: accurate-multiplier gradients regardless of the
// AppMult behaviour.
type STEEstimator struct{}

// Name returns "ste".
func (STEEstimator) Name() string { return EstSTE }

// Describe returns "ste" (the estimator has no parameters).
func (STEEstimator) Describe() string { return EstSTE }

// Tables builds the STE identity tables for the multiplier's width.
func (STEEstimator) Tables(m MulInfo) *Tables { return STE(m.Bits) }

// RawDiff is the smoothing-off ablation realized as a GradEstimator:
// central differences of the unsmoothed AppMult function (Section
// III-A demonstrates its zero-plateau/spike pathology).
type RawDiff struct{}

// Name returns "rawdiff".
func (RawDiff) Name() string { return EstRawDiff }

// Describe returns "rawdiff" (the estimator has no parameters).
func (RawDiff) Describe() string { return EstRawDiff }

// Tables builds the unsmoothed central-difference tables.
func (RawDiff) Tables(m MulInfo) *Tables { return RawDifference(m.Name, m.Bits, m.Mul) }

// EstimatorNames returns the registered estimator names, sorted.
func EstimatorNames() []string {
	out := []string{EstSmoothDiff, EstSTE, EstCVSTE, EstStochastic, EstRawDiff}
	sort.Strings(out)
	return out
}

// ParseEstimator parses an estimator spec string into a configured
// GradEstimator. A spec is a registered name with optional key=value
// parameters in parentheses:
//
//	smoothdiff                     registry-selected HWS per multiplier
//	smoothdiff(hws=8)              explicit half window size
//	ste
//	cvste
//	stochastic                     seed=1, samples=4, radius=4
//	stochastic(seed=7,samples=8)   explicit sampling parameters
//	rawdiff                        smoothing-off ablation
func ParseEstimator(spec string) (GradEstimator, error) {
	name, params, err := splitSpec(spec)
	if err != nil {
		return nil, err
	}
	switch name {
	case EstSmoothDiff:
		e := SmoothDiff{}
		if err := applyParams(name, params, map[string]*int{"hws": &e.HWS}); err != nil {
			return nil, err
		}
		return e, nil
	case EstSTE:
		if err := applyParams(name, params, nil); err != nil {
			return nil, err
		}
		return STEEstimator{}, nil
	case EstCVSTE:
		if err := applyParams(name, params, nil); err != nil {
			return nil, err
		}
		return ControlVariateSTE{}, nil
	case EstStochastic:
		e := Stochastic{}
		var seed int
		if err := applyParams(name, params, map[string]*int{
			"seed": &seed, "samples": &e.Samples, "radius": &e.Radius,
		}); err != nil {
			return nil, err
		}
		e.Seed = int64(seed)
		return e, nil
	case EstRawDiff:
		if err := applyParams(name, params, nil); err != nil {
			return nil, err
		}
		return RawDiff{}, nil
	default:
		return nil, fmt.Errorf("gradient: unknown estimator %q (known: %s)",
			name, strings.Join(EstimatorNames(), "|"))
	}
}

// splitSpec separates "name(key=value,...)" into the name and its raw
// key=value pairs.
func splitSpec(spec string) (name string, params map[string]string, err error) {
	spec = strings.TrimSpace(spec)
	open := strings.IndexByte(spec, '(')
	if open < 0 {
		return spec, nil, nil
	}
	if !strings.HasSuffix(spec, ")") {
		return "", nil, fmt.Errorf("gradient: malformed estimator spec %q (missing ')')", spec)
	}
	name = spec[:open]
	body := spec[open+1 : len(spec)-1]
	params = map[string]string{}
	for _, part := range strings.Split(body, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return "", nil, fmt.Errorf("gradient: malformed estimator parameter %q in %q", part, spec)
		}
		params[strings.TrimSpace(k)] = strings.TrimSpace(v)
	}
	return name, params, nil
}

// applyParams assigns integer parameters into the estimator's fields
// and rejects unknown keys or non-integer values.
func applyParams(name string, params map[string]string, dst map[string]*int) error {
	for k, v := range params {
		p, ok := dst[k]
		if !ok {
			return fmt.Errorf("gradient: estimator %s does not accept parameter %q", name, k)
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("gradient: estimator %s parameter %s=%q is not an integer", name, k, v)
		}
		*p = n
	}
	return nil
}

package gradient

import (
	"slices"
	"testing"
)

// FuzzParseEstimator feeds arbitrary spec strings to ParseEstimator —
// CLI flags, the distributed training spec and checkpoint metadata all
// carry one. It must never panic, and whatever it accepts must be one
// of the registered estimators.
func FuzzParseEstimator(f *testing.F) {
	for _, c := range parseCases {
		f.Add(c.spec)
	}
	for _, spec := range badSpecs {
		f.Add(spec)
	}
	names := EstimatorNames()
	f.Fuzz(func(t *testing.T, spec string) {
		est, err := ParseEstimator(spec)
		if err != nil {
			return
		}
		if !slices.Contains(names, est.Name()) {
			t.Fatalf("ParseEstimator(%q) returned estimator %q, not one of %v", spec, est.Name(), names)
		}
	})
}

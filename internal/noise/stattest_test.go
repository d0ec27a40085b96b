package noise

import (
	"fmt"
	"math"
)

// The statistical acceptance checks the noise tests use to compare Monte
// Carlo estimators: two samplers of the same quantity must agree within a
// few combined standard errors.

// binomialSE is the standard error of an observed proportion p over n
// trials.  It returns 0 for n <= 0.
func binomialSE(p float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	return math.Sqrt(p * (1 - p) / float64(n))
}

// compatible checks that two estimates of the same quantity agree within
// `sigmas` combined standard errors: |v1-v2| <= sigmas*sqrt(se1²+se2²) (a
// small epsilon absorbs float noise when both estimates are exact zeros).
// It returns nil on agreement and a descriptive error on disagreement, for
// the test to report.
func compatible(what string, v1, se1, v2, se2, sigmas float64) error {
	sigma := math.Sqrt(se1*se1 + se2*se2)
	if diff := math.Abs(v1 - v2); diff > sigmas*sigma+1e-12 {
		return fmt.Errorf("%s: %v vs %v differ by %v > %v sigma (%v)",
			what, v1, v2, diff, sigmas, sigmas*sigma)
	}
	return nil
}

// compatibleOneSided checks an estimate against an exact reference value
// with an extra relative slack on the reference — the shape of the
// first-order-oracle comparisons, where the oracle deliberately omits
// higher-order terms: |mc-ref| <= sigmas*se + slack*|ref|.
func compatibleOneSided(what string, mc, se, ref, sigmas, slack float64) error {
	tolerance := sigmas*se + slack*math.Abs(ref)
	if diff := math.Abs(mc - ref); diff > tolerance {
		return fmt.Errorf("%s: estimate %v ± %v vs reference %v differ by %v > tolerance %v",
			what, mc, se, ref, diff, tolerance)
	}
	return nil
}

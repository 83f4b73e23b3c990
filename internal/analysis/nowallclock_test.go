package analysis_test

import (
	"testing"

	"locality/internal/analysis"
	"locality/internal/analysis/analysistest"
)

func TestNoWallClock(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(),
		analysis.NewNoWallClock(analysis.NoWallClockOptions{}), "nowallclock")
}

// TestNoWallClockAllow checks the package allowlist: the "allowed" fixture
// reads the clock but carries no want comments, so any diagnostic on it
// fails the test unless the allowlist suppresses it.
func TestNoWallClockAllow(t *testing.T) {
	a := analysis.NewNoWallClock(analysis.NoWallClockOptions{AllowPackages: []string{"allowed"}})
	analysistest.Run(t, analysistest.TestData(), a, "allowed")
}

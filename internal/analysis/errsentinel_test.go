package analysis_test

import (
	"testing"

	"locality/internal/analysis"
	"locality/internal/analysis/analysistest"
)

func TestErrSentinel(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(),
		analysis.NewErrSentinel(), "errsentinel")
}

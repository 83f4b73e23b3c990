package analysis_test

import (
	"testing"

	"locality/internal/analysis"
	"locality/internal/analysis/analysistest"
)

func TestNoMapIter(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(),
		analysis.NewNoMapIter(), "nomapiter")
}

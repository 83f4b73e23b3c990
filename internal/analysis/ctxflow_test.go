package analysis_test

import (
	"testing"

	"locality/internal/analysis"
	"locality/internal/analysis/analysistest"
)

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.NewCtxFlow(), "ctxflow")
}

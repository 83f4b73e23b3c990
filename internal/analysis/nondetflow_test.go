package analysis_test

import (
	"testing"

	"locality/internal/analysis"
	"locality/internal/analysis/analysistest"
)

func TestNonDetFlow(t *testing.T) {
	// nondetflow: transitive leaks are reported at the taint root with full
	// provenance; flows through exempt packages are absorbed at the boundary.
	a := analysis.NewNonDetFlow(analysis.NonDetFlowOptions{
		ExemptPackages: []string{"nondetflowexempt"},
	})
	analysistest.Run(t, analysistest.TestData(), a, "nondetflow", "nondetflowdep")
}

func TestNonDetFlowExemptions(t *testing.T) {
	// Function-level exemptions: a live leaf-confined entry silences the
	// leaf and its callers; stale, unknown, unjustified and wrongly kinded
	// entries are reported in the package they point at.
	a := analysis.NewNonDetFlow(analysis.NonDetFlowOptions{
		Exemptions: []analysis.FuncExemption{
			{Func: "nondetflowstale.Wait", Kind: "wallclock", Reason: "fixture: sanctioned backoff leaf"},
			{Func: "nondetflowstale.NotALeaf", Kind: "wallclock", Reason: "fixture: stale, read moved to helper"},
			{Func: "nondetflowstale.Unjustified", Kind: "wallclock", Reason: ""},
			{Func: "nondetflowstale.Gone", Kind: "wallclock", Reason: "fixture: function was deleted"},
			{Func: "nondetflowstale.Misspelt", Kind: "wallclok", Reason: "fixture: kind is misspelt"},
			{Func: "nondetflowstale.Blocks", Kind: "blocking", Reason: "fixture: kind nondetflow does not check"},
		},
	})
	analysistest.Run(t, analysistest.TestData(), a, "nondetflowstale")
}

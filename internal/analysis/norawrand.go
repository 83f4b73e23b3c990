package analysis

import "strconv"

// rawRandImports are the randomness sources banned in model code. Global
// math/rand state is shared across nodes and (since Go 1.20) auto-seeded;
// crypto/rand is non-reproducible by design. Either one breaks the
// engine-equivalence and seeded-reproducibility guarantees, so per-node
// randomness must come from internal/rng streams handed out as Env.Rand.
var rawRandImports = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

// NewNoRawRand returns the norawrand analyzer: algorithm packages must not
// import math/rand, math/rand/v2 or crypto/rand. The RandLOCAL model gives
// every vertex a private stream; the reproduction realizes it as a
// deterministic per-node internal/rng source derived from the run seed, and
// any other randomness source silently breaks seeded reproducibility and the
// sequential/concurrent engine equivalence. Test files are exempt.
func NewNoRawRand() *Analyzer {
	a := &Analyzer{
		Name: "norawrand",
		Doc: "forbid math/rand and crypto/rand in model code; randomness must flow " +
			"through internal/rng per-node sources (Env.Rand)",
	}
	a.Run = func(pass *Pass) error {
		for _, f := range pass.Files {
			for _, imp := range f.Imports {
				if pass.InTestFile(imp.Pos()) {
					continue
				}
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil || !rawRandImports[path] {
					continue
				}
				pass.Reportf(imp.Pos(), "import of %q is forbidden in model code: "+
					"derive randomness from internal/rng (Env.Rand) so runs stay "+
					"seed-reproducible across engines", path)
			}
		}
		return nil
	}
	return a
}

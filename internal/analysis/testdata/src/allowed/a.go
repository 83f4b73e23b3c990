// Package allowed exercises nowallclock's package allowlist: it reads the
// clock but carries no want comments — the analyzer must stay silent when
// this path is configured as exempt.
package allowed

import "time"

// Elapsed reads the clock twice.
func Elapsed() time.Duration {
	start := time.Now()
	return time.Since(start)
}

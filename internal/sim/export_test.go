package sim

// AbortGrace exposes the concurrent engine's abort grace period to the
// external test package.
const AbortGrace = abortGrace

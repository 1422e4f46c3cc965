package locsrv

import (
	"resilientloc/internal/engine/run"
	"resilientloc/internal/obs"
)

// finish records an outcome on the job its spec names, deriving the job ID
// from the spec as a submission does. Tests use it to complete a registered
// job by hand.
func (s *Server) finish(o run.Outcome, trace []obs.SpanRecord) {
	s.record(o.Spec.Hash(), o, trace)
}

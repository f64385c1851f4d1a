package pastix

import (
	"fmt"

	"github.com/pastix-go/pastix/internal/solver"
)

// FactorPayload is the serializable numerical content of a Factor — the
// dense or BLR-compressed cell values plus the static-pivot report. It is
// produced by Factor.ExportPayload and consumed by Analysis.RestoreFactor;
// the durable store (internal/store) gives it a versioned, CRC-checked
// binary encoding. A payload carries no structure: restoring one requires
// an Analysis of the same pattern built under the same Options, which the
// deterministic analysis pipeline guarantees reproduces the exact Symbol
// the payload's cells were shaped by.
type FactorPayload = solver.FactorPayload

// ExportPayload lifts the factor's numerical content into a FactorPayload
// for persistence or transfer. The payload aliases the factor's immutable
// storage; serialize it before mutating anything.
func (f *Factor) ExportPayload() (*FactorPayload, error) {
	if f == nil || f.inner == nil {
		return nil, fmt.Errorf("pastix: export of nil factor")
	}
	return f.inner.ExportPayload(), nil
}

// RestoreFactor rebuilds a Factor from a persisted payload and the matrix it
// was factorized from, without refactorizing: the cell values are adopted
// verbatim, so solves against the restored factor are bitwise-identical to
// solves against the original. The matrix must carry the analysed pattern
// (ErrPatternMismatch otherwise) and the same values the factor was computed
// from — it binds the refinement path, exactly as in FactorizeValues. The
// payload's storage form is final: an analysis-level BLR option does NOT
// re-compress a restored dense factor, and a compressed payload stays
// compressed.
func (an *Analysis) RestoreFactor(a *Matrix, p *FactorPayload) (*Factor, error) {
	if p == nil {
		return nil, fmt.Errorf("pastix: restore from nil payload")
	}
	pa, err := permuteSamePattern(an, a)
	if err != nil {
		return nil, err
	}
	inner, err := solver.ImportFactors(an.inner.Sym, p)
	if err != nil {
		return nil, err
	}
	out := &Factor{inner: inner, an: an.inner, pa: pa}
	switch {
	case an.faults.Active():
		out.blrConflict = "fault injection needs dense factors (message-passing solve runtime)"
	case an.runtime == RuntimeMPSim:
		out.blrConflict = "analysis is pinned to RuntimeMPSim, whose solve needs dense factors"
	}
	return out, nil
}

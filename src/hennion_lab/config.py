"""Central tolerance record.

Every numerical cutoff used by the library lives in one frozen record that
callers pass explicitly; there are no hidden module-level knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    """All numerical thresholds, grouped in one immutable record.

    Attributes
    ----------
    pos_tol:
        Slack on the minimum eigenvalue when deciding positive
        semidefiniteness.
    rank_tol:
        Relative spectral cutoff (times the largest eigenvalue) below which
        an eigenvalue is treated as zero when building support projections.
    herm_tol:
        Largest admissible anti-Hermitian part before an element is rejected
        instead of symmetrized.
    trace_tol:
        Admissible deviation of a state's trace from one.
    support_tol:
        Threshold on the overlap of a support projection with the orthogonal
        complement of another; beyond it the semidefinite-order coefficient
        is declared zero.
    kernel_tol:
        Smallest trace of an image state accepted by the projective action.
    state_eq_tol:
        Trace-norm distance under which two states count as equal.
    m_product_floor:
        Below this value the product of the two order coefficients is
        treated as exactly zero and the distance reported as exactly one.
    cert_margin:
        Extra relative back-off on the sandwich constants lam and mu of the
        contraction certificate, on top of the fixed 64 machine epsilons
        (lam shrinks, mu grows).
    """

    pos_tol: float = 1e-9
    rank_tol: float = 1e-12
    herm_tol: float = 1e-10
    trace_tol: float = 1e-10
    support_tol: float = 1e-8
    kernel_tol: float = 1e-12
    state_eq_tol: float = 1e-8
    m_product_floor: float = 1e-15
    cert_margin: float = 0.0

    def with_overrides(self, **kwargs: float) -> "Tolerances":
        return replace(self, **kwargs)


DEFAULT_TOLS = Tolerances()

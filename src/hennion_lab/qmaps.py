"""Positive linear maps as superoperators and their contraction geometry.

A map is stored as its matrix in the trace-orthonormal Hermitian basis of
the algebra, where the trace pairing becomes the standard bilinear form and
the adjoint with respect to it is a plain matrix transpose.  The projective
action of a faithful positive map on states is nonexpansive for the
projective metric; ``contraction_estimate`` brackets its Lipschitz constant
between a sampled image diameter (lower bound) and a certificate derived
from an operator sandwich around the Perron state (upper bound).  The
sandwich constants are generalized eigenvalues of block-component Choi and
co-Choi matrices, so the upper bound is computed, not searched for.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    State,
    TracialAlgebra,
    checked_state_stack,
    hermitize_stack,
    is_positive,
    norm,
    random_state,
    random_state_stack,
    support_projection,
    trace,
    trace_stack,
)
from .config import DEFAULT_TOLS, Tolerances
from .errors import (
    HypothesisViolationError,
    KernelStateError,
    RejectedInputError,
    ShapeMismatchError,
)
from .hennion import hennion_distance, hennion_distance_many, m_quantity

__all__ = [
    "MapFlags",
    "SuperOperator",
    "ContractionEstimate",
    "IrreducibilityVerdict",
    "from_kraus",
    "from_matrix",
    "from_strongly_summable",
    "replacement_channel",
    "depolarizing_channel",
    "transpose_map",
    "identity_map",
    "dephasing_map",
    "mixed_unitary_channel",
    "predual",
    "projective_action",
    "projective_action_many",
    "compose",
    "contraction_estimate",
    "certified_upper",
    "perron_state",
    "UpperCertificate",
    "is_strict_contraction",
    "faithfulness_check",
    "irreducibility_probe",
    "unitalize",
]

YES, NO, UNVERIFIED = "yes", "no", "unverified"


@dataclass(frozen=True)
class MapFlags:
    """Validated structural properties; each is yes/no/unverified.

    Flags are decided when a map is built: a constructor asserts what holds
    by construction and ``validate_flags`` decides the rest.  ``positive``
    may be set by construction (Kraus, strongly summable) or validated
    empirically on ``positive_probes`` random positive inputs, in which case
    the count records the evidence.
    """

    hermiticity_preserving: str = UNVERIFIED
    positive: str = UNVERIFIED
    positive_probes: int = 0
    completely_positive: str = UNVERIFIED
    unital: str = UNVERIFIED
    tracial: str = UNVERIFIED
    faithful: str = UNVERIFIED


class SuperOperator:
    """A linear map on the algebra in its Hermitian coefficient basis."""

    __slots__ = ("algebra", "matrix", "flags", "provenance")

    def __init__(
        self,
        algebra: TracialAlgebra,
        matrix: np.ndarray,
        flags: MapFlags | None = None,
        provenance: dict | None = None,
    ):
        matrix = np.array(matrix, dtype=complex, copy=True)
        if matrix.shape != (algebra.dim, algebra.dim):
            raise ShapeMismatchError(
                f"superoperator matrix shape {matrix.shape} does not match"
                f" coefficient dimension {algebra.dim}"
            )
        matrix.setflags(write=False)
        self.algebra = algebra
        self.matrix = matrix
        self.flags = flags if flags is not None else MapFlags()
        self.provenance = provenance if provenance is not None else {"kind": "explicit_matrix"}

    def apply(self, x: AlgebraElement) -> AlgebraElement:
        self.algebra._check_member(x)
        return self.algebra.from_coefficients(self.matrix @ self.algebra.coefficients(x))

    def apply_dual(self, a: AlgebraElement) -> AlgebraElement:
        """Apply the trace-pairing adjoint without materializing it."""
        self.algebra._check_member(a)
        return self.algebra.from_coefficients(self.matrix.T @ self.algebra.coefficients(a))

    def rescaled(self, factor: float) -> "SuperOperator":
        return SuperOperator(
            self.algebra,
            self.matrix * factor,
            self.flags,
            dict(self.provenance),
        )

    def __repr__(self) -> str:
        return (
            f"SuperOperator(dim={self.algebra.dim},"
            f" provenance={self.provenance.get('kind')})"
        )


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def _matrix_from_action(
    algebra: TracialAlgebra, action: Callable[[AlgebraElement], AlgebraElement]
) -> np.ndarray:
    cols = []
    for k in range(algebra.dim):
        cols.append(algebra.coefficients(action(algebra.basis_element(k))))
    return np.stack(cols, axis=1)


def _choi_blocks(s: SuperOperator, co: bool = False) -> list[np.ndarray]:
    """Block-component Choi matrices ``C_ij = sum_kl E_kl (x) s(E_kl)_j``.

    One matrix of size ``n_i n_j`` per (input block i, output block j), in
    row-major (i, j) order.  With ``co`` the matrix unit ``E_lk`` goes at
    slot (k, l): the co-Choi matrices, i.e. the Choi matrices of s after the
    blockwise transpose.
    """
    alg = s.algebra
    off = alg._basis_offsets
    out = []
    for i, ni in enumerate(alg.block_dims):
        # coefficients of the units E_kl of block i are c_i * b_a[l, k]
        units = alg.trace_weights[i] * alg._basis[i]
        for j, nj in enumerate(alg.block_dims):
            coef = np.tensordot(s.matrix[off[j] : off[j + 1], off[i] : off[i + 1]], units, 1)
            img = np.tensordot(coef, alg._basis[j], (0, 0))  # [l, k, m, n] = s(E_kl)_j[m, n]
            img = img.transpose((0, 2, 1, 3) if co else (1, 2, 0, 3))
            out.append(img.reshape(ni * nj, ni * nj))
    return out


def _choi_is_psd(s: SuperOperator, tol: float = 1e-9) -> bool:
    """Complete positivity via the block-component Choi matrices."""
    for choi in _choi_blocks(s):
        w = np.linalg.eigvalsh((choi + choi.conj().T) / 2.0)
        if w[0] < -tol * max(1.0, float(abs(w[-1]))):
            return False
    return True


def validate_flags(
    s: SuperOperator,
    n_probe: int = 0,
    rng: np.random.Generator | None = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> SuperOperator:
    """The map ``s`` with its unverified flags decided by direct numerical checks.

    ``s`` itself is left as it is.  Positivity of a map that is not
    completely positive is not decidable from the matrix; when ``n_probe``
    > 0 it is validated empirically on that many random positive inputs and
    the count is recorded.
    """
    alg = s.algebra
    f = s.flags
    found = {}
    if f.hermiticity_preserving == UNVERIFIED:
        imag = float(np.max(np.abs(s.matrix.imag), initial=0.0))
        scale = max(1.0, float(np.max(np.abs(s.matrix.real), initial=0.0)))
        found["hermiticity_preserving"] = YES if imag <= 1e-10 * scale else NO
    one = alg.identity()
    c_one = alg.coefficients(one)
    if f.unital == UNVERIFIED:
        found["unital"] = (
            YES
            if norm(alg, s.apply(one) - one, "inf") <= 1e-10
            else NO
        )
    if f.tracial == UNVERIFIED:
        resid = s.matrix.T @ c_one - c_one
        found["tracial"] = YES if float(np.max(np.abs(resid))) <= 1e-10 else NO
    if f.completely_positive == UNVERIFIED:
        found["completely_positive"] = YES if _choi_is_psd(s) else NO
    if f.positive == UNVERIFIED:
        if found.get("completely_positive", f.completely_positive) == YES:
            found["positive"] = YES
        elif n_probe > 0:
            if rng is None:
                rng = np.random.default_rng(0)
            ok = True
            for _ in range(n_probe):
                p = random_state(alg, "full" if rng.integers(2) else "pure", rng)
                if not is_positive(alg, s.apply(p.element), tols=tols):
                    ok = False
                    break
            found["positive"] = YES if ok else NO
            found["positive_probes"] = n_probe
    if not found:
        return s
    return SuperOperator(alg, s.matrix, replace(f, **found), s.provenance)


def from_matrix(
    algebra: TracialAlgebra,
    matrix: np.ndarray,
    n_probe: int = 1000,
    rng: np.random.Generator | None = None,
    provenance: dict | None = None,
) -> SuperOperator:
    """Wrap an explicit coefficient matrix, validating every flag."""
    s = SuperOperator(algebra, matrix, provenance=provenance or {"kind": "explicit_matrix"})
    return validate_flags(s, n_probe=n_probe, rng=rng)


def from_kraus(algebra: TracialAlgebra, kraus_ops: Sequence[AlgebraElement]) -> SuperOperator:
    """x -> sum_i K_i x K_i*; completely positive by construction.

    The Choi test still runs as a self-check and the remaining flags are
    validated numerically.
    """
    if len(kraus_ops) == 0:
        raise RejectedInputError("need at least one Kraus operator")
    for k in kraus_ops:
        algebra._check_member(k)

    def action(x: AlgebraElement) -> AlgebraElement:
        out = algebra.zero()
        for k in kraus_ops:
            out = out + k @ x @ k.adjoint()
        return out

    mat = _matrix_from_action(algebra, action)
    s = SuperOperator(
        algebra,
        mat,
        MapFlags(positive=YES, completely_positive=UNVERIFIED),
        {"kind": "kraus", "n_ops": len(kraus_ops)},
    )
    s = validate_flags(s)
    if s.flags.completely_positive != YES:
        raise RejectedInputError("Kraus map failed its own Choi self-test")
    # application consistency between provenance and matrix representation
    rng = np.random.default_rng(7)
    probe = random_state(algebra, "full", rng).element
    direct = action(probe)
    via_matrix = s.apply(probe)
    if norm(algebra, direct - via_matrix, "inf") > 1e-10 * max(
        1.0, norm(algebra, direct, "inf")
    ):
        raise RejectedInputError("Kraus evaluation disagrees with matrix application")
    return s


def from_strongly_summable(
    algebra: TracialAlgebra,
    pairs: Sequence[tuple[AlgebraElement, AlgebraElement]],
    tols: Tolerances = DEFAULT_TOLS,
) -> SuperOperator:
    """x -> sum_i tau(x a_i) m_i for positive pairs (a_i, m_i).

    Faithful exactly when sum_i a_i is invertible, i.e. when tau(x a) > 0
    for every non-zero positive x.
    """
    if len(pairs) == 0:
        raise RejectedInputError("need at least one (a, m) pair")
    mat = np.zeros((algebra.dim, algebra.dim), dtype=complex)
    a_sum = algebra.zero()
    for a, m in pairs:
        algebra._check_member(a)
        algebra._check_member(m)
        if not is_positive(algebra, a, tols=tols) or not is_positive(algebra, m, tols=tols):
            raise RejectedInputError("strongly summable pairs must be positive")
        mat += np.outer(algebra.coefficients(m), algebra.coefficients(a))
        a_sum = a_sum + a
    lam_min = min(float(np.linalg.eigvalsh(blk)[0]) for blk in a_sum.hermitize(tols).blocks)
    lam_max = max(float(np.linalg.eigvalsh(blk)[-1]) for blk in a_sum.hermitize(tols).blocks)
    faithful = YES if lam_min > tols.rank_tol * max(lam_max, 1.0) else NO
    s = SuperOperator(
        algebra,
        mat,
        MapFlags(positive=YES, faithful=faithful),
        {"kind": "strongly_summable", "n_pairs": len(pairs)},
    )
    return validate_flags(s)


def replacement_channel(algebra: TracialAlgebra, target: State) -> SuperOperator:
    """x -> tau(x) * x0; the projective action is constant at x0."""
    c1 = algebra.coefficients(algebra.identity())
    cx = algebra.coefficients(target.element)
    s = SuperOperator(
        algebra,
        np.outer(cx, c1),
        MapFlags(positive=YES, completely_positive=YES, faithful=YES),
        {"kind": "strongly_summable", "n_pairs": 1, "note": "replacement"},
    )
    return validate_flags(s)


def depolarizing_channel(algebra: TracialAlgebra, eps: float) -> SuperOperator:
    """x -> (1 - eps) x + eps tau(x) 1 for eps in [0, 1]."""
    if not 0.0 <= eps <= 1.0:
        raise RejectedInputError("mixing parameter must lie in [0, 1]")
    c1 = algebra.coefficients(algebra.identity())
    mat = (1.0 - eps) * np.eye(algebra.dim) + eps * np.outer(c1, c1)
    s = SuperOperator(
        algebra,
        mat,
        MapFlags(positive=YES, completely_positive=YES, faithful=YES),
        {"kind": "explicit_matrix", "note": f"depolarizing({eps})"},
    )
    return validate_flags(s)


def transpose_map(algebra: TracialAlgebra) -> SuperOperator:
    """Blockwise transpose; positive and a metric isometry, but not CP."""

    def action(x: AlgebraElement) -> AlgebraElement:
        return AlgebraElement(algebra, [blk.T for blk in x.blocks])

    s = SuperOperator(
        algebra,
        _matrix_from_action(algebra, action),
        MapFlags(positive=YES, faithful=YES),
        {"kind": "explicit_matrix", "note": "transpose"},
    )
    return validate_flags(s)


def identity_map(algebra: TracialAlgebra) -> SuperOperator:
    s = SuperOperator(
        algebra,
        np.eye(algebra.dim),
        MapFlags(positive=YES, completely_positive=YES, unital=YES, tracial=YES, faithful=YES),
        {"kind": "explicit_matrix", "note": "identity"},
    )
    return validate_flags(s)


def dephasing_map(algebra: TracialAlgebra) -> SuperOperator:
    """Pinch every block to its diagonal."""

    def action(x: AlgebraElement) -> AlgebraElement:
        return AlgebraElement(algebra, [np.diag(np.diag(blk)) for blk in x.blocks])

    s = SuperOperator(
        algebra,
        _matrix_from_action(algebra, action),
        MapFlags(positive=YES, completely_positive=YES, faithful=YES),
        {"kind": "explicit_matrix", "note": "dephasing"},
    )
    return validate_flags(s)


def mixed_unitary_channel(
    algebra: TracialAlgebra, rng: np.random.Generator, n_terms: int = 3
) -> SuperOperator:
    """Random convex mixture of blockwise unitary conjugations.

    Unital, tracial, completely positive and faithful by construction.
    """
    probs = rng.dirichlet(np.ones(n_terms))
    kraus = []
    for p in probs:
        blocks = []
        for n in algebra.block_dims:
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            q, r = np.linalg.qr(g)
            q = q * (np.diag(r) / np.abs(np.diag(r)))
            blocks.append(np.sqrt(p) * q)
        kraus.append(AlgebraElement(algebra, blocks))
    s = from_kraus(algebra, kraus)
    # unitary conjugations fix 1, so the dual image of 1 is 1: faithful
    return SuperOperator(algebra, s.matrix, replace(s.flags, faithful=YES), s.provenance)


# ---------------------------------------------------------------------------
# duality, action, composition
# ---------------------------------------------------------------------------


def predual(s: SuperOperator, tols: Tolerances = DEFAULT_TOLS) -> SuperOperator:
    """Adjoint for the weighted trace pairing tau(predual(s)(x) a) = tau(x s(a)).

    In the Hermitian coefficient basis the pairing is the plain bilinear
    form, so the predual is the matrix transpose.  Requires validated
    hermiticity preservation (equivalently, a real coefficient matrix).
    Positivity-type flags transfer; unital and tracial swap; faithfulness
    is recomputed since it does not transfer.  The flags of ``s`` are left
    as they are.
    """
    f = validate_flags(s).flags
    if f.hermiticity_preserving != YES:
        raise RejectedInputError("predual requires a hermiticity-preserving map")
    flags = MapFlags(
        hermiticity_preserving=YES,
        positive=f.positive,
        positive_probes=f.positive_probes,
        completely_positive=f.completely_positive,
        unital=f.tracial,
        tracial=f.unital,
    )
    out = SuperOperator(s.algebra, s.matrix.T, flags, {"kind": "predual", "of": s.provenance})
    faithful = faithfulness_check(out, tols)
    return SuperOperator(s.algebra, out.matrix, replace(flags, faithful=faithful), out.provenance)


def projective_action(
    s: SuperOperator, x: State, tols: Tolerances = DEFAULT_TOLS
) -> State:
    """Normalized image s(x)/tau(s(x)); kernel states are rejected.

    ``projective_action_many`` on a stack of one.
    """
    s.algebra._check_member(x.element)
    images = _normalized_images(s, [blk[None] for blk in x.blocks], tols)
    return State.from_element(AlgebraElement(s.algebra, [blk[0] for blk in images]), tols)


def projective_action_many(
    s: SuperOperator, stacks: Sequence[np.ndarray], tols: Tolerances = DEFAULT_TOLS
) -> list[np.ndarray]:
    """``projective_action`` on a stack of N states, one (N, n, n) array per block.

    The coefficients of all N inputs come from one ``einsum`` per block and
    the map is one matmul.  An image trace at or below ``kernel_tol`` raises
    ``KernelStateError``; the images are symmetrized (``hermitize_stack``),
    their negative eigenvalues are clipped and the trace is renormalized,
    and the result passes ``checked_state_stack``, whose failures raise
    ``RejectedInputError``.  Returns the images as a stack.
    """
    return checked_state_stack(s.algebra, _normalized_images(s, stacks, tols), tols)[0]


def _normalized_images(
    s: SuperOperator, stacks: Sequence[np.ndarray], tols: Tolerances
) -> list[np.ndarray]:
    """The images of ``projective_action_many`` before the state checks."""
    alg = s.algebra
    off = alg._basis_offsets
    coeffs = np.concatenate(
        [
            c * np.einsum("anm,Nmn->Na", basis, blk)
            for c, basis, blk in zip(alg.trace_weights, alg._basis, stacks)
        ],
        axis=1,
    )
    img = coeffs @ s.matrix.T
    blocks = [
        np.einsum("Na,anm->Nnm", img[:, off[i] : off[i + 1]], basis)
        for i, basis in enumerate(alg._basis)
    ]
    t = trace_stack(alg, blocks)
    if np.any(t <= tols.kernel_tol):
        raise KernelStateError(
            f"image trace {t.min():.3e} at or below the kernel tolerance"
        )
    blocks = hermitize_stack([blk * (1.0 / t)[:, None, None] for blk in blocks], tols)
    # clip roundoff negatives accumulated along long compositions
    for blk in blocks:
        w, v = np.linalg.eigh(blk)
        neg = w[:, 0] < 0.0
        if neg.any():
            v = v[neg]
            blk[neg] = (v * np.maximum(w[neg], 0.0)[:, None, :]) @ v.conj().swapaxes(1, 2)
    t = trace_stack(alg, blocks)
    return [blk * (1.0 / t)[:, None, None] for blk in blocks]


def compose(s1: SuperOperator, s2: SuperOperator) -> SuperOperator:
    """The composition s1 after s2, with conservatively combined flags."""
    if not s1.algebra.compatible(s2.algebra):
        raise ShapeMismatchError("cannot compose maps on different algebras")

    def both(a: str, b: str) -> str:
        if a == YES and b == YES:
            return YES
        return UNVERIFIED

    f = MapFlags(
        hermiticity_preserving=both(
            s1.flags.hermiticity_preserving, s2.flags.hermiticity_preserving
        ),
        positive=both(s1.flags.positive, s2.flags.positive),
        completely_positive=both(
            s1.flags.completely_positive, s2.flags.completely_positive
        ),
        unital=both(s1.flags.unital, s2.flags.unital),
        tracial=both(s1.flags.tracial, s2.flags.tracial),
        faithful=both(s1.flags.faithful, s2.flags.faithful),
    )

    def factors(p: dict) -> list:
        return p["factors"] if p.get("kind") == "composition" else [p]

    return SuperOperator(
        s1.algebra,
        s1.matrix @ s2.matrix,
        f,
        {"kind": "composition", "factors": factors(s1.provenance) + factors(s2.provenance)},
    )


def faithfulness_check(s: SuperOperator, tols: Tolerances = DEFAULT_TOLS) -> str:
    """The faithful flag of ``s`` when decided, else the computed verdict.

    A positive map on the trace-norm side is faithful exactly when its dual
    applied to the identity is invertible (the trace of every image of a
    non-zero positive element is then strictly positive).  When that
    operator is singular, a rank test of the span of products of dual
    images with the basis decides the residual cases.
    """
    if s.flags.faithful in (YES, NO):
        return s.flags.faithful
    alg = s.algebra
    d1 = s.apply_dual(alg.identity()).hermitize(tols)
    lam = [np.linalg.eigvalsh(blk) for blk in d1.blocks]
    lo = min(float(w[0]) for w in lam)
    hi = max(float(w[-1]) for w in lam)
    if lo > max(hi, 1.0) * 1e-12:
        return YES
    # rank of the span {dual(b_i) b_j} over the Hermitian basis
    vecs = []
    basis = [alg.basis_element(k) for k in range(alg.dim)]
    duals = [s.apply_dual(b) for b in basis]
    for db in duals:
        for b in basis:
            prod = db @ b
            vecs.append(np.concatenate([blk.ravel() for blk in prod.blocks]))
    mat = np.stack(vecs)
    rank = np.linalg.matrix_rank(mat, tol=1e-10 * max(1.0, float(np.abs(mat).max())))
    full = sum(n * n for n in alg.block_dims)
    return YES if rank == full else NO


# ---------------------------------------------------------------------------
# contraction constant estimation
# ---------------------------------------------------------------------------


@dataclass
class ContractionEstimate:
    """Two-sided bracket of the projective Lipschitz constant.

    ``lower_bound`` is a sampled (and refined) image diameter, hence always
    a true lower bound: the search runs on stacked kernels, and its winning
    pair is re-evaluated with the scalar ``hennion_distance``, so the value
    is the distance of two actual image points.  ``singular_pairs`` counts
    the pairs of the search whose images were not both invertible and so
    took the exact support-restricted distance one at a time.
    ``upper_bound`` comes from the sandwich
    ``lam*T <= s <= mu*T`` around ``T(x) = tau(s*(1) x) x0`` at the Perron
    state x0 (``perron_state``): every image state lies in
    ``[lam*x0, mu*x0]``, so the constant is at most ``(1 - r^2)/(1 + r^2)``
    with ``r = lam/mu``, clamped into [lower_bound, 1].  ``sandwich`` holds
    (lam, mu) when x0 is a state, ``eta = min(lam, 1/mu)`` is the symmetric
    constant of ``eta x0 <= s.x <= eta^-1 x0``, and ``upper_method`` names
    the matrices that proved the two sides: ``choi``, ``co_choi``, ``mixed``
    (one each) or ``none`` (no certificate, upper bound 1).
    ``fixed_point_converged`` means x0 is a state, ``convergence_error``
    that the certificate ran and it was not, and ``fixed_point_iterations``
    is always 0: x0 comes from one eigenvector, not an iteration.
    """

    lower_bound: float
    upper_bound: float
    fixed_point: State | None
    eta: float
    n_samples: int
    refine_iters: int
    fixed_point_converged: bool = False
    fixed_point_iterations: int = 0
    convergence_error: bool = False
    best_pair: tuple | None = field(default=None, repr=False)
    sandwich: tuple[float, float] | None = None
    upper_method: str = "none"
    singular_pairs: int = 0


def _axis_pure_vectors(algebra: TracialAlgebra) -> list[tuple[int, np.ndarray]]:
    """Deterministic pure-state directions: axes plus two-axis mixtures."""
    out = []
    for b, n in enumerate(algebra.block_dims):
        eye = np.eye(n)
        for k in range(n):
            out.append((b, eye[:, k].astype(complex)))
        for k in range(n):
            for l in range(k + 1, n):
                out.append((b, (eye[:, k] + eye[:, l]) / np.sqrt(2) + 0j))
                out.append((b, (eye[:, k] + 1j * eye[:, l]) / np.sqrt(2)))
    return out


def _pure_stack(
    algebra: TracialAlgebra, vectors: Sequence[tuple[int, np.ndarray]]
) -> list[np.ndarray]:
    """Pure states ``|v><v| / c_block`` (v normalized) as a stack, one per (block, v)."""
    stacks = [np.zeros((len(vectors), n, n), dtype=complex) for n in algebra.block_dims]
    for b in range(algebra.n_blocks):
        rows = [k for k, (block, _) in enumerate(vectors) if block == b]
        if rows:
            v = np.stack([vectors[k][1] for k in rows])
            w = v / np.linalg.norm(v, axis=1)[:, None]
            stacks[b][rows] = w[:, :, None] * w.conj()[:, None, :] / algebra.trace_weights[b]
    return stacks


def _pack(v: np.ndarray) -> np.ndarray:
    return np.concatenate([v.real, v.imag])


def _unpack(z: np.ndarray) -> np.ndarray:
    n = z.shape[-1] // 2
    return z[..., :n] + 1j * z[..., n:]


def _ascend(
    objective: Callable[[np.ndarray], np.ndarray],
    z0: np.ndarray,
    steps: int,
    step_size: float = 0.1,
) -> tuple[np.ndarray, float]:
    """Projected-gradient ascent with halving backtracking.

    ``objective`` maps a stack of points to their values.  Each step
    evaluates the 2·dim(z) central-difference points as one stack, then the
    full trial step alone and, only when it does not improve, the 19
    halvings after it as one stack; the first trial that improves wins.
    A trial improves only when it beats the current value by more than
    64 machine epsilons of ``max(|f|, 1)``: smaller gains are roundoff in
    the objective, so the ascent stops when no trial clears that margin.
    """
    z = z0 / np.linalg.norm(z0)
    f = objective(z[None])[0]
    h = 1e-6
    shifts = h * np.eye(len(z))
    trials = step_size * 0.5 ** np.arange(20)
    eps = float(np.finfo(float).eps)
    for _ in range(steps):
        vals = objective(np.concatenate([z + shifts, z - shifts]))
        g = (vals[: len(z)] - vals[len(z) :]) / (2 * h)
        gn = np.linalg.norm(g)
        if gn < 1e-14:
            break
        zt = z + trials[:, None] * g / gn
        zt = zt / np.linalg.norm(zt, axis=1)[:, None]
        target = f + 64.0 * eps * max(abs(f), 1.0)
        ft = objective(zt[:1])
        if not ft[0] > target:
            ft = np.concatenate([ft, objective(zt[1:])])
        better = np.flatnonzero(ft > target)
        if better.size == 0:
            break
        z, f = zt[better[0]], ft[better[0]]
    return z, f


def minimize(*args, **kwargs):
    """scipy's ``minimize``, imported on first use: only the opt-in ``_polish`` needs it."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def _polish(objective, z0: np.ndarray) -> tuple[np.ndarray, float]:
    """Nelder-Mead maximization of ``objective`` from ``z0``."""
    res = minimize(
        lambda z: -objective(z),
        z0,
        method="Nelder-Mead",
        options={"fatol": 1e-13, "xatol": 1e-9, "maxiter": 1200, "maxfev": 2400},
    )
    return res.x, -res.fun


def _choi_sandwich(
    s: SuperOperator, x0: State, tols: Tolerances
) -> tuple[float, float, str]:
    """Sandwich constants ``lam*T <= s <= mu*T`` for ``T(x) = tau(s*(1) x) x0``.

    ``s - lam*T`` and ``mu*T - s`` are proven (co-)completely positive, so
    positive, by the block-component (co-)Choi matrices C(s), C(T) (Choi
    1975; on M2 every positive map is decomposable, Woronowicz 1976).  Per
    kind, lam and mu are the extreme eigenvalues of the pencil
    ``C(T)^{-1/2} C(s) C(T)^{-1/2}``, lam 0 if C(s) is singular (order
    coefficients when C(T) is singular, if C(s) is positive).  The co-Choi
    kind takes a side (``method``) only by over 64 epsilons.  Both are backed
    off by 64 epsilons (lam by 8 condition numbers of C(s), C(T) if more).
    """
    alg = s.algebra
    eps = float(np.finfo(float).eps)
    c1 = alg.coefficients(alg.identity())
    t = SuperOperator(alg, np.outer(alg.coefficients(x0.element), s.matrix.T @ c1))
    # [C(s), co-C(s), C(T), co-C(T)] per block pair, stacked again per pair size
    kinds = (_choi_blocks(s), _choi_blocks(s, True), _choi_blocks(t), _choi_blocks(t, True))
    choi = hermitize_stack([np.stack(c) for c in zip(*kinds)], tols)
    sizes = [blk.shape[-1] for blk in choi]
    stacks = [np.stack([c for c, d in zip(choi, sizes) if d == n]) for n in sorted(set(sizes))]
    eigs = [np.linalg.eigh(st) for st in stacks]
    lo = np.min([w[:, :, 0].min(0) for w, _ in eigs], 0)  # per kind, over block pairs
    hi = np.max([w[:, :, -1].max(0) for w, _ in eigs], 0)
    sides = []  # (method, backed-off lam, mu) of each kind that proves something
    if lo[2:].min() > tols.rank_tol * hi[2:].max():  # C(T) is positive, and invertible
        p_lo, p_hi = np.inf, -np.inf
        for st, (w, v) in zip(stacks, eigs):
            r, v = 1.0 / np.sqrt(w[:, 2:]), v[:, 2:]
            p = r[..., :, None] * (v.conj().swapaxes(-1, -2) @ st[:, :2] @ v) * r[..., None, :]
            spec = np.linalg.eigvalsh((p + p.conj().swapaxes(-1, -2)) / 2.0)
            p_lo = np.minimum(p_lo, spec[..., 0].min(0))
            p_hi = np.maximum(p_hi, spec[..., -1].max(0))
        for k in range(2):
            side_lam = 0.0  # as the order coefficient of a singular C(s)
            if lo[k] > tols.rank_tol * hi[k]:
                cond = max(hi[k] / lo[k], hi[2:].max() / lo[2:].min())
                side_lam = p_lo[k] * (1.0 - max(64.0, 8.0 * cond) * eps)
            sides.append((("choi", "co_choi")[k], float(side_lam), float(p_hi[k])))
    else:
        dims = [ni * nj for ni in alg.block_dims for nj in alg.block_dims]
        pairs = TracialAlgebra(dims, [1.0] * len(dims))
        for k, method in enumerate(("choi", "co_choi")):
            cs, ct = AlgebraElement(pairs, kinds[k]), AlgebraElement(pairs, kinds[2 + k])
            if is_positive(pairs, cs, tol=64.0 * eps * norm(pairs, cs, "inf"), tols=tols).positive:
                nu = m_quantity(ct, cs, tols).value
                side_lam = m_quantity(cs, ct, tols).value * (1.0 - 64.0 * eps)
                sides.append((method, side_lam, 1.0 / nu if nu > 0.0 else np.inf))
    lam, mu, lam_by, mu_by = 0.0, np.inf, None, None
    for method, side_lam, side_mu in sides:
        if side_lam > lam * (1.0 + 64.0 * eps):
            lam, lam_by = side_lam, method
        if side_mu < mu * (1.0 - 64.0 * eps):
            mu, mu_by = side_mu, method
    shrink = (1.0 - 64.0 * eps) * (1.0 - tols.cert_margin)
    lam, mu = max(lam * (1.0 - tols.cert_margin), 0.0), mu / shrink  # lam: eps per side
    if lam <= 0.0 or not np.isfinite(mu):
        return lam, mu, "none"
    return lam, mu, lam_by if lam_by == mu_by else "mixed"


@dataclass(frozen=True)
class UpperCertificate:
    """The search-free upper bound of ``certified_upper`` and its evidence.

    ``fixed_point`` is the Perron state x0 of ``perron_state`` (None when
    the Perron vector is not a state or its image is a kernel state),
    ``sandwich`` the (lam, mu) of ``_choi_sandwich`` at it,
    ``eta = min(lam, 1/mu)``, ``method`` the matrices that proved the two
    sides (``none``: no certificate) and ``upper_bound`` the ratio bound
    ``(1 - r^2)/(1 + r^2)``, ``r = lam/mu``, or 1 without a certificate;
    the defaults are the no-certificate case.
    """

    fixed_point: State | None = None
    eta: float = 0.0
    sandwich: tuple[float, float] | None = None
    method: str = "none"
    upper_bound: float = 1.0


def perron_state(s: SuperOperator, tols: Tolerances = DEFAULT_TOLS) -> State | None:
    """The Perron state: the fixed point of the projective action, from one eigenvector.

    A positive map has its spectral radius as an eigenvalue with a positive
    eigenvector (Evans-Hoegh-Krohn 1978).  The eigenvector of ``s.matrix``
    for the eigenvalue of largest real part, divided by its trace, is made a
    state, and one ``projective_action`` step takes the eigen-solver's
    residual, which on a nearly rank-one map is far above roundoff, down to
    roundoff.  Returns None when the vector is not a state or its image is
    a kernel state.
    """
    alg = s.algebra
    w, v = np.linalg.eig(s.matrix)
    vec = v[:, int(np.argmax(w.real))]  # unit norm
    t = np.dot(alg.coefficients(alg.identity()), vec)
    if abs(t) <= tols.kernel_tol:
        return None
    vec = (vec / t).real
    try:
        return projective_action(s, State.from_element(alg.from_coefficients(vec), tols), tols)
    except (RejectedInputError, KernelStateError):
        return None


def certified_upper(s: SuperOperator, tols: Tolerances = DEFAULT_TOLS) -> UpperCertificate:
    """Upper bound on the projective Lipschitz constant of a faithful positive map.

    The reference state x0 is the Perron state of ``perron_state``, and
    ``_choi_sandwich`` computes the largest lam and smallest mu with
    ``lam x0 <= s.x/tau(s.x) <= mu x0`` that the Choi and co-Choi matrices
    prove: the extreme eigenvalues of the pencil ``C(T)^{-1/2} C(s)
    C(T)^{-1/2}``, order coefficients when C(T) is singular.  Any two image
    states y, y' then satisfy ``m(y, y') >= lam/mu``, so the constant is at
    most ``(1 - r^2)/(1 + r^2)``, ``r = lam/mu``.  The sandwich is sound for
    any x0, so no convergence is needed; no search is involved, no random
    number is drawn, and the bound holds for every state.
    """
    x = perron_state(s, tols)
    if x is None:
        return UpperCertificate()
    lam, mu, method = _choi_sandwich(s, x, tols)
    upper = 1.0
    if method != "none":
        r2 = (lam / mu) ** 2
        upper = (1.0 - r2) / (1.0 + r2)
    return UpperCertificate(x, min(lam, 1.0 / mu), (lam, mu), method, upper)


def contraction_estimate(
    s: SuperOperator,
    n_samples: int = 64,
    refine_iters: int = 50,
    rng: np.random.Generator | None = None,
    polish: bool = False,
    tols: Tolerances = DEFAULT_TOLS,
) -> ContractionEstimate:
    """Bracket the projective Lipschitz constant of a faithful positive map.

    Lower bound: the distance between projective images is searched in
    four phases: pairs of a deterministic set of axis-aligned pure states,
    ``n_samples`` random pairs of boundary and pure states, random
    pure-state candidates (when no axis pair won), and a projected-gradient
    ascent over pure-state vectors (``_ascend``, at most ``refine_iters``
    steps, stopping when no step gains more than roundoff).  With
    ``polish=True`` a Nelder-Mead polish (scipy, imported on first use)
    follows the ascent; it is off by default, since it rarely moves the
    bound and costs several times the rest of the search.  Each phase
    evaluates its pairs as one stack with ``projective_action_many`` and
    ``hennion_distance_many``, keeping the choices and the rng order of a
    pair-by-pair search.  The winning pair is re-evaluated once with the
    scalar ``hennion_distance``, so the reported bound is the distance of
    two actual image points and hence a true lower bound of the image
    diameter.

    Upper bound: ``certified_upper``, run when the lower bound is at most
    ``1 - 1e-9``, and clamped into ``[lower_bound, 1]``.
    """
    if faithfulness_check(s, tols) != YES:
        raise HypothesisViolationError(
            "map is not faithful: the dual image of the identity is singular"
            " and the product-span rank test fails, so the projective action"
            " has kernel states"
        )
    alg = s.algebra
    if rng is None:
        rng = np.random.default_rng(0)

    singular = 0

    def distances(xa: list, xb: list) -> tuple[np.ndarray, list, list]:
        nonlocal singular
        ya = projective_action_many(s, xa, tols)
        yb = projective_action_many(s, xb, tols)
        d, n_singular = hennion_distance_many(alg, ya, yb, tols)
        singular += n_singular
        return d, ya, yb

    def row(stack: list, k: int) -> list:
        return [blk[k] for blk in stack]

    lower = 0.0
    best_pair = None
    best_images = None  # the image blocks of best_pair

    axis = _axis_pure_vectors(alg)
    if len(axis) > 1:
        axis_images = projective_action_many(s, _pure_stack(alg, axis), tols)
        ii, jj = np.triu_indices(len(axis), 1)  # pairs i < j, row by row
        d, n_singular = hennion_distance_many(
            alg, [blk[ii] for blk in axis_images], [blk[jj] for blk in axis_images], tols
        )
        singular += n_singular
        k = int(np.argmax(d))  # the first strict maximum
        if d[k] > lower:
            lower = d[k]
            best_pair = (axis[ii[k]], axis[jj[k]])
            best_images = (row(axis_images, ii[k]), row(axis_images, jj[k]))

    if n_samples > 0:
        # pair j draws a boundary and a pure state, in alternating order
        kinds = [("boundary", "pure")[(j + side) % 2] for j in range(n_samples) for side in (0, 1)]
        x = random_state_stack(alg, kinds, rng, tols)
        xa, xb = [blk[0::2] for blk in x], [blk[1::2] for blk in x]
        d, ya, yb = distances(xa, xb)
        k = int(np.argmax(d))
        if d[k] > lower:
            lower = d[k]
            best_pair = tuple(
                State.from_element(AlgebraElement(alg, row(xs, k)), tols) for xs in (xa, xb)
            )
            best_images = (row(ya, k), row(yb, k))

    # refine over pure-state vector pairs
    pure_pair = None
    if best_pair is not None and isinstance(best_pair[0], tuple):
        pure_pair = best_pair
    else:
        candidates = []
        for _ in range(max(4, n_samples // 8)):
            ba = int(rng.integers(alg.n_blocks))
            bb = int(rng.integers(alg.n_blocks))
            va = rng.standard_normal(alg.block_dims[ba]) + 1j * rng.standard_normal(
                alg.block_dims[ba]
            )
            vb = rng.standard_normal(alg.block_dims[bb]) + 1j * rng.standard_normal(
                alg.block_dims[bb]
            )
            candidates.append(((ba, va), (bb, vb)))
        d, _, _ = distances(
            _pure_stack(alg, [c[0] for c in candidates]),
            _pure_stack(alg, [c[1] for c in candidates]),
        )
        pure_pair = candidates[len(d) - 1 - int(np.argmax(d[::-1]))]  # the last maximum

    if pure_pair is not None and refine_iters > 0 and lower < 1.0 - 1e-12:
        (ba, va), (bb, vb) = pure_pair
        na = alg.block_dims[ba]

        def objective(zs: np.ndarray) -> np.ndarray:
            u, w = _unpack(zs[:, : 2 * na]), _unpack(zs[:, 2 * na :])
            ok = (np.linalg.norm(u, axis=1) >= 1e-12) & (np.linalg.norm(w, axis=1) >= 1e-12)
            out = np.zeros(len(zs))
            if ok.any():
                out[ok] = distances(
                    _pure_stack(alg, [(ba, v) for v in u[ok]]),
                    _pure_stack(alg, [(bb, v) for v in w[ok]]),
                )[0]
            return out

        z0 = np.concatenate([_pack(va / np.linalg.norm(va)), _pack(vb / np.linalg.norm(vb))])
        z, f = _ascend(objective, z0, refine_iters)
        if polish:
            z, f = _polish(lambda z: objective(z[None])[0], z)
        if f > lower:
            best_pair = (
                (ba, _unpack(z[: 2 * na])),
                (bb, _unpack(z[2 * na :])),
            )
            best_images = tuple(
                row(projective_action_many(s, _pure_stack(alg, [p]), tols), 0) for p in best_pair
            )

    if best_images is not None:
        # the reported bound is the exact distance of the winning image pair
        lower = hennion_distance(
            AlgebraElement(alg, best_images[0]), AlgebraElement(alg, best_images[1]), tols
        )

    cert = UpperCertificate()
    if lower <= 1.0 - 1e-9:
        cert = certified_upper(s, tols)

    return ContractionEstimate(
        lower_bound=float(lower),
        upper_bound=float(min(1.0, max(cert.upper_bound, lower))),
        fixed_point=cert.fixed_point,
        eta=cert.eta,
        n_samples=n_samples,
        refine_iters=refine_iters,
        fixed_point_converged=cert.fixed_point is not None,
        convergence_error=cert.fixed_point is None and lower < 1.0 - 1e-9,
        best_pair=best_pair,
        sandwich=cert.sandwich,
        upper_method=cert.method,
        singular_pairs=singular,
    )


def is_strict_contraction(
    s: SuperOperator, estimate: ContractionEstimate
) -> str:
    """Certified verdict from a computed bracket."""
    if estimate.upper_bound < 1.0 - 1e-6:
        return "certified_yes"
    if estimate.lower_bound > 1.0 - 1e-9:
        return "certified_no"
    return "undecided"


# ---------------------------------------------------------------------------
# reducibility and unitalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IrreducibilityVerdict:
    kind: str  # "no_invariant_projection_found" or "reducible"
    witness: AlgebraElement | None = None
    scale: float | None = None


def _proj_candidates(
    s: SuperOperator, rng: np.random.Generator, n_random: int, tols: Tolerances
) -> list[AlgebraElement]:
    alg = s.algebra
    cands: list[AlgebraElement] = []

    def add_from_spectrum(x: AlgebraElement) -> None:
        # cumulative spectral projections across the joint block spectrum
        pairs = []
        for b, blk in enumerate(x.hermitize(tols).blocks):
            w, v = np.linalg.eigh(blk)
            for k in range(len(w)):
                pairs.append((float(w[k]), b, v[:, k]))
        pairs.sort(key=lambda t: t[0])
        for cut in range(1, len(pairs)):
            blocks = [np.zeros((n, n), dtype=complex) for n in alg.block_dims]
            for _, b, vec in pairs[:cut]:
                blocks[b] += np.outer(vec, vec.conj())
            cands.append(AlgebraElement(alg, blocks))

    # block indicators
    if alg.n_blocks > 1:
        for b in range(alg.n_blocks):
            blocks = [np.zeros((n, n), dtype=complex) for n in alg.block_dims]
            blocks[b] = np.eye(alg.block_dims[b], dtype=complex)
            cands.append(AlgebraElement(alg, blocks))
    # axis projections and cumulative sums
    for b, n in enumerate(alg.block_dims):
        for k in range(n):
            blocks = [np.zeros((m, m), dtype=complex) for m in alg.block_dims]
            blocks[b][k, k] = 1.0
            cands.append(AlgebraElement(alg, blocks))
    # spectral structure of the Perron state (or of s(1))
    x0 = perron_state(s, tols)
    add_from_spectrum(x0.element if x0 is not None else s.apply(alg.identity()))
    # iterated supports of images of random projections
    for _ in range(n_random):
        p = random_state(alg, "pure", rng, tols=tols).element
        q = support_projection(alg, p, tols=tols)
        for _ in range(3):
            img = s.apply(q).hermitize(tols)
            q = support_projection(alg, img, rank_tol=1e-9, tols=tols)
            cands.append(q)
    return cands


def irreducibility_probe(
    s: SuperOperator,
    rng: np.random.Generator | None = None,
    n_random: int = 8,
    tols: Tolerances = DEFAULT_TOLS,
) -> IrreducibilityVerdict:
    """Search for a non-trivial projection p with s(p) <= lambda p.

    The search covers block indicators, axis projections, spectral
    projections of the Perron state, and iterated supports of images of
    random projections.  Absence of a witness is heuristic evidence only,
    not a proof of irreducibility.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    alg = s.algebra
    total = sum(alg.block_dims)
    for p in _proj_candidates(s, rng, n_random, tols):
        rank = round(
            sum(float(np.trace(blk).real) for blk in p.blocks)
        )
        if rank <= 0 or rank >= total:
            continue
        img = s.apply(p).hermitize(tols)
        one_minus = alg.identity() - p
        resid = one_minus @ img @ one_minus
        lam = norm(alg, img, "inf")
        if norm(alg, resid, "inf") <= 1e-10 * max(lam, 1.0):
            return IrreducibilityVerdict("reducible", witness=p, scale=lam)
    return IrreducibilityVerdict("no_invariant_projection_found")


def unitalize(s: SuperOperator, tols: Tolerances = DEFAULT_TOLS) -> SuperOperator:
    """Unital tracial repair of a subunital, subtracial positive map.

    Adds the rank-one correction
    ``x -> (tau(x) - tau(s(x))) / (1 - tau(s(1))) * (1 - s(1))``
    which restores both unitality and trace preservation, and never
    increases the contraction constant.
    """
    s = validate_flags(s)
    alg = s.algebra
    one = alg.identity()
    s1 = s.apply(one).hermitize(tols)
    defect = one - s1
    if not is_positive(alg, defect, tols=tols):
        raise RejectedInputError("map is not subunital; nothing to repair")
    dual1 = s.apply_dual(one).hermitize(tols)
    if not is_positive(alg, one - dual1, tols=tols):
        raise RejectedInputError("map is not subtracial; nothing to repair")
    denom = 1.0 - trace(alg, s1).real
    if denom <= 1e-12:
        raise RejectedInputError("map is already tracial; correction is degenerate")
    c1 = alg.coefficients(one)
    w = c1 - s.matrix.T @ c1  # beta -> tau(b_beta) - tau(s(b_beta))
    mat = s.matrix + np.outer(alg.coefficients(defect), w) / denom
    out = SuperOperator(
        alg,
        mat,
        MapFlags(positive=s.flags.positive, completely_positive=s.flags.completely_positive),
        {"kind": "composition", "factors": [s.provenance, {"kind": "unital_repair"}]},
    )
    return validate_flags(out)

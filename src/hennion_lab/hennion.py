"""The projective metric on the normal state space.

For positive elements x, y the order coefficient
``m(x, y) = max{ lam : lam*y <= x }`` (semidefinite order) induces the
bounded metric

    d(x, y) = (1 - m(x, y) m(y, x)) / (1 + m(x, y) m(y, x))

on unit-trace positive elements.  Three independent computation paths for m
are provided (restricted eigenpencil, bisection on positivity, infimum over
sampled positive pairings) together with the line-segment reconstruction of
the metric, which serves as the primary cross-validation oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    State,
    TracialAlgebra,
    hermitize_stack,
    norm,
    trace,
)
from .config import DEFAULT_TOLS, Tolerances
from .errors import DegeneratePairError, DegenerateSamplingError, RejectedInputError

__all__ = [
    "MQuantityResult",
    "LineDecomposition",
    "m_quantity",
    "m_quantity_bisection",
    "m_quantity_inf_sampling",
    "hennion_distance",
    "hennion_distance_many",
    "line_decomposition",
    "classify_component",
]


@dataclass(frozen=True)
class MQuantityResult:
    """Largest lam with lam*y <= x, plus the path that produced it.

    ``certificate`` is a slightly backed-off lambda at which the
    semidefinite inequality is verifiable with the standard tolerance.
    """

    value: float
    method: str
    certificate: float

    def __float__(self) -> float:
        return self.value


def _as_element(x) -> AlgebraElement:
    return x.element if isinstance(x, State) else x


def _check_pair(x, y) -> tuple[AlgebraElement, AlgebraElement]:
    xe, ye = _as_element(x), _as_element(y)
    xe.algebra._check_member(ye)
    nx = norm(xe.algebra, xe, "inf")
    ny = norm(ye.algebra, ye, "inf")
    if nx <= 0.0 or ny <= 0.0:
        raise RejectedInputError("order coefficient needs non-zero positive inputs")
    return xe, ye


def m_quantity(x, y, tols: Tolerances = DEFAULT_TOLS) -> MQuantityResult:
    """Order coefficient via the support-restricted eigenpencil.

    When x has an eigenvalue below ``-pos_tol * max(1, ||x||_inf)``, the
    negativity ``State.from_element`` rejects, no positive multiple of y
    sits below it and the value is zero; so it is when the support of y is
    not contained in the support of x.  Smaller negative eigenvalues are
    roundoff of a state and count as zero.  Otherwise the value is the
    reciprocal of the largest eigenvalue of y compressed by the
    pseudo-inverse square root of x on its support, computed block by
    block.
    """
    xe, ye = _check_pair(x, y)
    alg = xe.algebra
    xh = xe.hermitize(tols)
    yh = ye.hermitize(tols)
    x_eigs = [np.linalg.eigh(blk) for blk in xh.blocks]
    lo_x = min(float(w[0]) for w, _ in x_eigs)
    lam_x = max(float(w[-1]) for w, _ in x_eigs)
    if lo_x < -tols.pos_tol * max(1.0, lam_x, -lo_x):
        return MQuantityResult(0.0, "eigen_pencil", -1e-12)
    y_eigs = [np.linalg.eigh(blk) for blk in yh.blocks]
    lam_y = max(float(w[-1]) for w, _ in y_eigs)
    cut_x = tols.rank_tol * max(lam_x, 0.0)
    cut_y = tols.rank_tol * max(lam_y, 0.0)

    best = np.inf
    for i in range(alg.n_blocks):
        wy, vy = y_eigs[i]
        y_keep = vy[:, wy > cut_y]
        if y_keep.shape[1] == 0:
            continue  # this block puts no constraint on lambda
        wx, vx = x_eigs[i]
        keep = wx > cut_x
        x_keep = vx[:, keep]
        # support containment: ||(1 - p_x) p_y||_inf
        resid = y_keep - x_keep @ (x_keep.conj().T @ y_keep)
        if resid.size and np.linalg.norm(resid, 2) > tols.support_tol:
            return MQuantityResult(0.0, "eigen_pencil", -1e-12)
        d = wx[keep]
        y_r = x_keep.conj().T @ yh.blocks[i] @ x_keep
        pencil = y_r / np.sqrt(d)[:, None] / np.sqrt(d)[None, :]
        pencil = (pencil + pencil.conj().T) / 2.0
        top = float(np.linalg.eigvalsh(pencil)[-1])
        if top > 0.0:
            best = min(best, 1.0 / top)
    if not np.isfinite(best):
        raise RejectedInputError("second argument is numerically zero")
    return MQuantityResult(best, "eigen_pencil", best - 1e-12)


def _min_eig(x: AlgebraElement) -> float:
    return min(float(np.linalg.eigvalsh(blk)[0]) for blk in x.blocks)


def m_quantity_bisection(
    x, y, tol: float = 1e-10, tols: Tolerances = DEFAULT_TOLS
) -> MQuantityResult:
    """Order coefficient by bisection on semidefiniteness of x - lam*y.

    The bracket starts at [0, tau(x)/tau(y)], which is the tightest a-priori
    range of admissible lambdas.  Feasibility uses the bare sign of the
    minimum eigenvalue (machine-scale slack only), so the result is
    independent of the coarser positivity tolerance.
    """
    xe, ye = _check_pair(x, y)
    alg = xe.algebra
    xh, yh = xe.hermitize(tols), ye.hermitize(tols)
    scale = max(norm(alg, xh, "inf"), norm(alg, yh, "inf"), 1e-300)
    feas_eps = 64.0 * np.finfo(float).eps * scale

    def feasible(lam: float) -> bool:
        z = xh - lam * yh
        return _min_eig(z) >= -feas_eps

    hi = trace(alg, xh).real / trace(alg, yh).real
    if feasible(hi):
        return MQuantityResult(hi, "bisection", hi - 1e-12)
    lo = 0.0
    if not feasible(lo):
        # supports incompatible beyond machine slack
        return MQuantityResult(0.0, "bisection", -1e-12)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return MQuantityResult(lo, "bisection", lo - 1e-12)


def m_quantity_inf_sampling(
    x,
    y,
    n_samples: int,
    rng: np.random.Generator,
    tols: Tolerances = DEFAULT_TOLS,
) -> MQuantityResult:
    """Upper estimate of the order coefficient by sampled positive pairings.

    Draws positive probes a (rank-one and full-rank, half and half) and
    returns the minimum of tau(x a)/tau(y a) over probes with tau(y a) > 0.
    The estimate is always an upper bound of the true value and is
    non-increasing in ``n_samples`` for a fixed stream prefix.
    """
    if n_samples < 1:
        raise RejectedInputError("need at least one sample")
    xe, ye = _check_pair(x, y)
    alg = xe.algebra
    dims = alg.block_dims
    best = np.inf
    used = 0
    for j in range(n_samples):
        if j % 2 == 0:
            b = int(rng.integers(alg.n_blocks))
            v = rng.standard_normal(dims[b]) + 1j * rng.standard_normal(dims[b])
            blocks = [np.zeros((n, n), dtype=complex) for n in dims]
            blocks[b] = np.outer(v, v.conj())
        else:
            blocks = []
            for n in dims:
                g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                blocks.append(g.conj().T @ g)
        a = AlgebraElement(alg, blocks)
        den = trace(alg, ye @ a).real
        if den <= 0.0:
            continue
        num = trace(alg, xe @ a).real
        used += 1
        best = min(best, num / den)
    if used == 0:
        raise DegenerateSamplingError(
            "every probe had tau(y a) <= 0; the sampler is broken for this input"
        )
    return MQuantityResult(float(best), "inf_sampling", float(best) - 1e-12)


def _m_product(x, y, tols: Tolerances) -> float:
    return m_quantity(x, y, tols).value * m_quantity(y, x, tols).value


def hennion_distance(x, y, tols: Tolerances = DEFAULT_TOLS) -> float:
    """Projective distance between two states, in [0, 1].

    Products of order coefficients below the floor are treated as exactly
    zero so the distance is reported as exactly one.
    """
    q = _m_product(x, y, tols)
    if q < tols.m_product_floor:
        return 1.0
    return max(0.0, (1.0 - q) / (1.0 + q))


def hennion_distance_many(
    algebra: TracialAlgebra,
    a: Sequence[np.ndarray],
    b: Sequence[np.ndarray],
    tols: Tolerances = DEFAULT_TOLS,
) -> tuple[np.ndarray, int]:
    """``hennion_distance`` of every pair (a[k], b[k]) of two state stacks.

    ``a`` and ``b`` hold one (N, n, n) array per block of ``algebra``.  When
    both states of a pair are invertible (every eigenvalue above the rank
    cut) both order coefficients come from the stacked pencils
    ``x^{-1/2} y x^{-1/2}``, which is what ``m_quantity`` computes for such
    a pair.  Any other pair goes to the support-restricted
    ``hennion_distance``, one pair at a time.  Returns the distances and
    the number of those singular pairs.
    """
    a, b = hermitize_stack(a, tols), hermitize_stack(b, tols)
    eig_a = [np.linalg.eigh(blk) for blk in a]
    eig_b = [np.linalg.eigh(blk) for blk in b]

    def invertible(eigs) -> np.ndarray:
        top = np.max([w[:, -1] for w, _ in eigs], axis=0)
        low = np.min([w[:, 0] for w, _ in eigs], axis=0)
        return low > tols.rank_tol * np.maximum(top, 0.0)

    fast = invertible(eig_a) & invertible(eig_b)
    if not fast.all():
        eig_a = [(w[fast], v[fast]) for w, v in eig_a]
        eig_b = [(w[fast], v[fast]) for w, v in eig_b]
        a_fast = [blk[fast] for blk in a]
        b_fast = [blk[fast] for blk in b]
    else:
        a_fast, b_fast = a, b

    def m_many(x_eigs, ys) -> np.ndarray:
        # m(x, y) = 1 / max over blocks of the top pencil eigenvalue
        tops = []
        for (w, v), y in zip(x_eigs, ys):
            r = np.sqrt(w)
            pencil = v.conj().swapaxes(1, 2) @ y @ v / r[:, :, None] / r[:, None, :]
            pencil = (pencil + pencil.conj().swapaxes(1, 2)) / 2.0
            tops.append(np.linalg.eigvalsh(pencil)[:, -1])
        return 1.0 / np.max(tops, axis=0)

    q = m_many(eig_a, b_fast) * m_many(eig_b, a_fast)
    out = np.ones(len(fast))
    out[fast] = np.where(
        q < tols.m_product_floor, 1.0, np.maximum(0.0, (1.0 - q) / (1.0 + q))
    )
    singular = np.flatnonzero(~fast)
    for k in singular:
        out[k] = hennion_distance(
            AlgebraElement(algebra, [blk[k] for blk in a]),
            AlgebraElement(algebra, [blk[k] for blk in b]),
            tols,
        )
    return out, len(singular)


@dataclass(frozen=True)
class LineDecomposition:
    """Extreme points of the line through two states inside the state space.

    ``A_plus = t_plus*x + (1 - t_plus)*y`` and similarly for ``A_minus``;
    r and s express x and y as convex combinations of the extreme points.
    The distance reconstructed from the endpoints is
    ``(t_plus - t_minus) / (t_minus + t_plus - 2*t_minus*t_plus)``.
    """

    t_plus: float
    t_minus: float
    A_plus: State
    A_minus: State
    r: float
    s: float

    @property
    def distance(self) -> float:
        tp, tm = self.t_plus, self.t_minus
        return (tp - tm) / (tm + tp - 2.0 * tm * tp)


def line_decomposition(
    x: State, y: State, tol: float = 1e-11, tols: Tolerances = DEFAULT_TOLS
) -> LineDecomposition:
    """Locate the endpoints of {t*x + (1-t)*y} inside the state space.

    Both endpoint parameters are found by bisection on semidefiniteness;
    they satisfy 1 <= t_plus <= 2/||x-y||_1 and the mirrored bound for
    t_minus.
    """
    alg = x.algebra
    xe, ye = x.element, y.element
    gap = norm(alg, xe - ye, "one")
    if gap <= tols.state_eq_tol:
        raise DegeneratePairError("states coincide within tolerance")
    diff = xe - ye
    scale = max(norm(alg, xe, "inf"), norm(alg, ye, "inf"))
    feas_eps = 64.0 * np.finfo(float).eps * max(scale, 1.0)

    def feasible(t: float) -> bool:
        z = ye + t * diff
        return _min_eig(z) >= -feas_eps

    bound = 2.0 / gap

    def bisect(pred, lo: float, hi: float) -> float:
        # invariant: pred(lo), not pred(hi)
        width = max(abs(hi), abs(lo), 1.0) * tol
        while hi - lo > width:
            mid = 0.5 * (lo + hi)
            if pred(mid):
                lo = mid
            else:
                hi = mid
        return lo

    hi_plus = bound * (1.0 + 1e-9) + 1e-12
    t_plus = hi_plus if feasible(hi_plus) else bisect(feasible, 1.0, hi_plus)
    t_minus = (
        -hi_plus
        if feasible(-hi_plus)
        else -bisect(lambda u: feasible(-u), 0.0, hi_plus)
    )

    def mix(t: float) -> State:
        z = (ye + t * diff).hermitize(tols)
        # clip the bisection residual so the endpoint is a valid state
        blocks = []
        for blk in z.blocks:
            w, v = np.linalg.eigh(blk)
            blocks.append((v * np.maximum(w, 0.0)) @ v.conj().T)
        z = AlgebraElement(alg, blocks)
        return State.from_element(z * (1.0 / trace(alg, z).real), tols)

    a_plus = mix(t_plus)
    a_minus = mix(t_minus)
    span = t_plus - t_minus
    r = (t_plus - 1.0) / span
    s = t_plus / span
    return LineDecomposition(
        t_plus=float(t_plus),
        t_minus=float(t_minus),
        A_plus=a_plus,
        A_minus=a_minus,
        r=float(r),
        s=float(s),
    )


def classify_component(
    x: State, y: State, tols: Tolerances = DEFAULT_TOLS
) -> str:
    """Decide whether two states share a metric component.

    Returns ``distance_one`` when exactly one of the states is invertible
    or when their supports are incomparable (vanishing product of order
    coefficients); otherwise ``same_component``.
    """
    if x.is_invertible != y.is_invertible:
        return "distance_one"
    if x.is_invertible and y.is_invertible:
        return "same_component"
    q = _m_product(x, y, tols)
    return "distance_one" if q < tols.m_product_floor else "same_component"

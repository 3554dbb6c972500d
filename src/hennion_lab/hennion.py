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
    hermitize_stack,
    norm,
    trace,
)
from .config import TOLS
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


def _pair_stacks(x, y) -> tuple[list, list]:
    """``_check_pair``, then both elements as stacks of one."""
    return tuple([blk[None] for blk in e.blocks] for e in _check_pair(x, y))


def _pencil_range(x_eigs, y, y_eigs) -> tuple[np.ndarray, np.ndarray]:
    """Extreme eigenvalues of the support-restricted pencils of pairs (x_k, y_k).

    ``x_eigs`` and ``y_eigs`` are ``eigh`` of two Hermitian stacks, one
    ``(w, v)`` per block with w of shape (N, n); ``y`` is y's stack.
    Returns the smallest and largest pencil eigenvalue over the blocks, with
    the rules of ``m_quantity``, so that ``m(x, y) = 1/top``: top is
    infinite where m is 0, and at most 0 where y is numerically zero.  With
    every x invertible no support test runs, and a block where y has no
    support is not skipped: its pencil stays below ``max(y)/max(x)``, which
    the block of y's largest eigenvalue reaches.
    """
    n_pairs = len(x_eigs[0][0])
    lo_x = np.min([w[:, 0] for w, _ in x_eigs], axis=0)
    lam_x = np.max([w[:, -1] for w, _ in x_eigs], axis=0)
    cut_x = TOLS.rank_tol * np.maximum(lam_x, 0.0)
    bottom, top = np.full(n_pairs, np.inf), np.full(n_pairs, -np.inf)

    def pencil_spectra(w, v, yb) -> np.ndarray:
        root = np.sqrt(w)
        pencil = v.conj().swapaxes(1, 2) @ yb @ v / root[:, :, None] / root[:, None, :]
        return np.linalg.eigvalsh((pencil + pencil.conj().swapaxes(1, 2)) / 2.0)

    if (lo_x > cut_x).all():
        for (w, v), yb in zip(x_eigs, y):
            spec = pencil_spectra(w, v, yb)
            bottom, top = np.minimum(bottom, spec[:, 0]), np.maximum(top, spec[:, -1])
        return bottom, top
    cut_y = TOLS.rank_tol * np.maximum(np.max([w[:, -1] for w, _ in y_eigs], axis=0), 0.0)
    for (w, v), yb, (wy, vy) in zip(x_eigs, y, y_eigs):
        n = w.shape[1]
        rank = (w > cut_x[:, None]).sum(axis=1)  # eigh sorts, so x's support is the top `rank`
        has_y = wy[:, -1] > cut_y
        for r in np.unique(rank[has_y]):
            k = np.flatnonzero(has_y & (rank == r))
            vk = v[k][:, :, n - r :]
            if r < n:
                # support containment: ||(1 - p_x) p_y||_inf
                y_keep = vy[k] * (wy[k] > cut_y[k, None])[:, None, :]
                resid = y_keep - vk @ (vk.conj().swapaxes(1, 2) @ y_keep)
                top[k[np.linalg.norm(resid, 2, axis=(1, 2)) > TOLS.support_tol]] = np.inf
            if r > 0:
                spec = pencil_spectra(w[k][:, n - r :], vk, yb[k])
                bottom[k] = np.minimum(bottom[k], spec[:, 0])
                top[k] = np.maximum(top[k], spec[:, -1])
    top[lo_x < -TOLS.pos_tol * np.maximum(1.0, np.maximum(lam_x, -lo_x))] = np.inf
    return bottom, top


def _order_coefficients(top: np.ndarray) -> np.ndarray:
    """``m = 1/top`` of ``_pencil_range``; a numerically zero y is rejected."""
    if (top <= 0.0).any():
        raise RejectedInputError("second argument is numerically zero")
    return 1.0 / top


def m_quantity(x, y) -> MQuantityResult:
    """Order coefficient via the support-restricted eigenpencil.

    When x has an eigenvalue below ``-pos_tol * max(1, ||x||_inf)``, the
    negativity ``State.from_element`` rejects, no positive multiple of y
    sits below it and the value is zero; so it is when the support of y is
    not contained in the support of x.  Smaller negative eigenvalues are
    roundoff of a state and count as zero.  Otherwise the value is the
    reciprocal of the largest eigenvalue of y compressed by the
    pseudo-inverse square root of x on its support, computed block by
    block.  This is ``_pencil_range``, the kernel of every order
    coefficient in the package, on a stack of one.
    """
    xs, ys = (hermitize_stack(u) for u in _pair_stacks(x, y))
    x_eigs, y_eigs = ([np.linalg.eigh(blk) for blk in u] for u in (xs, ys))
    value = float(_order_coefficients(_pencil_range(x_eigs, ys, y_eigs)[1])[0])
    return MQuantityResult(value, "eigen_pencil", value - 1e-12)


def _min_eig(x: AlgebraElement) -> float:
    return min(float(np.linalg.eigvalsh(blk)[0]) for blk in x.blocks)


def m_quantity_bisection(x, y, tol: float = 1e-10) -> MQuantityResult:
    """Order coefficient by bisection on semidefiniteness of x - lam*y.

    The bracket starts at [0, tau(x)/tau(y)], which is the tightest a-priori
    range of admissible lambdas.  Feasibility uses the bare sign of the
    minimum eigenvalue (machine-scale slack only), so the result is
    independent of the coarser positivity tolerance.
    """
    xe, ye = _check_pair(x, y)
    alg = xe.algebra
    xh, yh = xe.hermitize(), ye.hermitize()
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
    x, y, n_samples: int, rng: np.random.Generator
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


def _m_products(a: list, b: list) -> np.ndarray:
    """``m(a_k, b_k) * m(b_k, a_k)`` of two stacks, one ``eigh`` per side."""
    a, b = hermitize_stack(a), hermitize_stack(b)
    ea, eb = ([np.linalg.eigh(blk) for blk in u] for u in (a, b))
    top_ab, top_ba = (_pencil_range(*args)[1] for args in ((ea, b, eb), (eb, a, ea)))
    return _order_coefficients(top_ab) * _order_coefficients(top_ba)


def hennion_distance(x, y) -> float:
    """Projective distance between two states, in [0, 1].

    Products of order coefficients below the floor are treated as exactly
    zero so the distance is reported as exactly one.  This is
    ``hennion_distance_many`` on a stack of one.
    """
    return float(hennion_distance_many(*_pair_stacks(x, y))[0])


def hennion_distance_many(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> np.ndarray:
    """``hennion_distance`` of every pair (a[k], b[k]) of two state stacks.

    ``a`` and ``b`` hold one (N, n, n) array per block.  Both order
    coefficients of every pair come from the kernel of ``m_quantity``,
    whose support test runs only on elements singular in a block.
    """
    q = _m_products(a, b)
    return np.where(q < TOLS.m_product_floor, 1.0, np.maximum(0.0, (1.0 - q) / (1.0 + q)))


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


def line_decomposition(x: State, y: State, tol: float = 1e-11) -> LineDecomposition:
    """Locate the endpoints of {t*x + (1-t)*y} inside the state space.

    Both endpoint parameters are found by bisection on semidefiniteness;
    they satisfy 1 <= t_plus <= 2/||x-y||_1 and the mirrored bound for
    t_minus.
    """
    alg = x.algebra
    xe, ye = x.element, y.element
    gap = norm(alg, xe - ye, "one")
    if gap <= TOLS.state_eq_tol:
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
        z = (ye + t * diff).hermitize()
        # clip the bisection residual so the endpoint is a valid state
        blocks = []
        for blk in z.blocks:
            w, v = np.linalg.eigh(blk)
            blocks.append((v * np.maximum(w, 0.0)) @ v.conj().T)
        z = AlgebraElement(alg, blocks)
        return State.from_element(z * (1.0 / trace(alg, z).real))

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


def classify_component(x: State, y: State) -> str:
    """Decide whether two states share a metric component.

    Returns ``distance_one`` when exactly one of the states is invertible
    or when their supports are incomparable (vanishing product of order
    coefficients); otherwise ``same_component``.
    """
    if x.is_invertible != y.is_invertible:
        return "distance_one"
    if x.is_invertible and y.is_invertible:
        return "same_component"
    q = _m_products(*_pair_stacks(x, y))[0]
    return "distance_one" if q < TOLS.m_product_floor else "same_component"

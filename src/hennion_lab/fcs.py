"""Chain states generated by a random transfer map on a bond algebra.

A generator consumes one on-site observable and one bond observable and
returns a bond observable; iterating it right to left across an interval
and closing with the limit state of the flanking bond process produces a
translation-covariant family of states on the two-sided chain.  Because
the generator is unital, sites outside the support of an observable
telescope away exactly, so every value reduces to a finite contraction
whose only error is the certified contraction bound of the flank.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    State,
    TracialAlgebra,
    is_positive,
    norm,
    random_state,
    tensor_algebra,
)
from .errors import (
    HypothesisViolationError,
    RejectedInputError,
    ShapeMismatchError,
)
from .process import (
    ChannelEnsemble,
    ErgodicDriver,
    EstimatorOptions,
    derive_seed,
    parameter_seed,
)
from .qmaps import MapFlags, SuperOperator, certified_upper, predual, validate_flags

__all__ = [
    "GeneratorMap",
    "LocalObservable",
    "PsiEstimate",
    "DecayRow",
    "DecayReport",
    "BirkhoffReport",
    "product_generator",
    "random_unital_generator",
    "iterate_generator",
    "psi_value",
    "psi_of_parts",
    "translation_covariance_check",
    "clustering_experiment",
    "birkhoff_average",
    "bond_process_ensemble",
]


# ---------------------------------------------------------------------------
# local observables
# ---------------------------------------------------------------------------


def _check_budget(alg: TracialAlgebra, length: int) -> None:
    if alg.dim**length > 4096:
        raise RejectedInputError(
            f"observable support of {length} sites exceeds the dense-tensor budget"
        )


def _site_coefficients(
    sites: Sequence[TracialAlgebra], element: AlgebraElement
) -> np.ndarray:
    """Coefficients of an element of ``sites[0] (x) ... (x) sites[-1]``.

    Entry ``(a_1, ..., a_L)``, flattened with the first site major, is
    ``tau(b_{a_1} (x) ... (x) b_{a_L} x)`` over the sites' Hermitian bases.
    Block ``(i_1, ..., i_L)`` of the element (row-major, as
    ``tensor_algebra`` orders them) is contracted against one site basis at
    a time and scaled by the product of the site weights.
    """
    out = np.zeros(tuple(s.dim for s in sites), dtype=complex)
    tuples = itertools.product(*(range(s.n_blocks) for s in sites))
    for idx, blk in zip(tuples, element.blocks):
        dims = [s.block_dims[i] for s, i in zip(sites, idx)]
        t = blk.reshape(dims + dims)  # t[row_1..row_L, col_1..col_L]
        for k, (s, i) in enumerate(zip(sites, idx)):
            # tau(b x) = c Tr(b x) = c sum b[col, row] x[row, col]; the new
            # coefficient axis goes last, so the next site is always axis 0
            t = np.tensordot(t, s._basis[i], axes=([0, len(sites) - k], [2, 1]))
        weight = math.prod(s.trace_weights[i] for s, i in zip(sites, idx))
        window = tuple(
            slice(s._basis_offsets[i], s._basis_offsets[i + 1])
            for s, i in zip(sites, idx)
        )
        out[window] = weight * t
    return out.reshape(-1)


@dataclass(frozen=True)
class LocalObservable:
    """An observable supported on a finite integer interval of sites.

    ``coeff_tensor`` expands it over products of single-site basis elements,
    first site major: entry ``(a_1, ..., a_L)`` is
    ``tau(b_{a_1} (x) ... (x) b_{a_L} x)``.  The trace of the tensor power
    is the product trace, so a product ``f_1 (x) ... (x) f_L`` has
    ``kron(c(f_1), ..., c(f_L))`` with ``c = site_algebra.coefficients``,
    and its ``norm_inf`` is the product of the factors' operator norms.
    Embedding into any larger window is implicit (identity sites never
    enter the evaluation, preserving the sup norm).  The budget of 4096
    entries bounds the dense tensor that ``_core_eval`` consumes; it is
    checked at construction, which itself never builds a power basis.
    """

    site_algebra: TracialAlgebra
    support: tuple[int, int]
    norm_inf: float
    coeff_tensor: np.ndarray = field(repr=False)

    @property
    def support_interval(self) -> tuple[int, int]:
        return self.support

    @property
    def length(self) -> int:
        return self.support[1] - self.support[0] + 1

    @staticmethod
    def from_element(
        site_algebra: TracialAlgebra,
        support: tuple[int, int],
        element: AlgebraElement,
    ) -> "LocalObservable":
        """An observable from an element of the ``length``-fold tensor power."""
        lo, hi = int(support[0]), int(support[1])
        if hi < lo:
            raise RejectedInputError("empty support interval")
        length = hi - lo + 1
        _check_budget(site_algebra, length)
        power = site_algebra
        for _ in range(length - 1):
            power = tensor_algebra(power, site_algebra)
        power._check_member(element)
        return LocalObservable(
            site_algebra=site_algebra,
            support=(lo, hi),
            norm_inf=norm(power, element, "inf"),
            coeff_tensor=_site_coefficients([site_algebra] * length, element),
        )

    @staticmethod
    def from_sites(
        site_algebra: TracialAlgebra,
        start: int,
        factors: Sequence[AlgebraElement],
    ) -> "LocalObservable":
        """The product observable ``factors[0] (x) ...`` from site ``start``."""
        if not factors:
            raise RejectedInputError("need at least one site factor")
        _check_budget(site_algebra, len(factors))
        return LocalObservable(
            site_algebra=site_algebra,
            support=(start, start + len(factors) - 1),
            norm_inf=math.prod(norm(site_algebra, f, "inf") for f in factors),
            coeff_tensor=functools.reduce(
                np.kron, [site_algebra.coefficients(f) for f in factors]
            ),
        )

    def shifted(self, k: int) -> "LocalObservable":
        return replace(self, support=(self.support[0] + k, self.support[1] + k))


# ---------------------------------------------------------------------------
# generator maps
# ---------------------------------------------------------------------------


class GeneratorMap:
    """A parameterized unital positive map from site (x) bond to bond.

    ``map_at`` returns the coefficient matrix of shape
    ``(dim_bond, dim_site * dim_bond)`` over the product basis (site index
    major), and ``induced_phi`` restricts it to identity on the site
    factor, giving the unital bond map whose predual drives the flank
    process.
    """

    def __init__(
        self,
        on_site: TracialAlgebra,
        bond: TracialAlgebra,
        recipe: str,
        builder: Callable[[object], np.ndarray],
        params: dict | None = None,
    ):
        self.on_site = on_site
        self.bond = bond
        self.recipe = recipe
        self.params = params or {}
        self._builder = builder
        self._e_cache: dict = {}
        self._phi_cache: dict = {}
        # certified upper bounds of composed flanks, keyed on the flank's
        # driver points (first site first)
        self._cert_cache: dict = {}
        self._c1_site = on_site.coefficients(on_site.identity())

    def map_at(self, parameter) -> np.ndarray:
        if parameter in self._e_cache:
            return self._e_cache[parameter]
        mat = np.asarray(self._builder(parameter), dtype=complex)
        expected = (self.bond.dim, self.on_site.dim * self.bond.dim)
        if mat.shape != expected:
            raise ShapeMismatchError(
                f"generator matrix has shape {mat.shape}, expected {expected}"
            )
        mat.setflags(write=False)
        if len(self._e_cache) < 512:
            self._e_cache[parameter] = mat
        return mat

    def induced_phi(self, parameter) -> SuperOperator:
        if parameter in self._phi_cache:
            return self._phi_cache[parameter]
        e3 = self.map_at(parameter).reshape(
            self.bond.dim, self.on_site.dim, self.bond.dim
        )
        mat = np.einsum("bag,a->bg", e3, self._c1_site)
        phi = SuperOperator(
            self.bond,
            mat,
            MapFlags(positive="yes"),
            {"kind": "explicit_matrix", "note": f"induced_phi[{self.recipe}]"},
        )
        phi = validate_flags(phi)
        if len(self._phi_cache) < 512:
            self._phi_cache[parameter] = phi
        return phi

    def apply_e(
        self, parameter, site_obs: AlgebraElement, bond_obs: AlgebraElement
    ) -> AlgebraElement:
        """Evaluate the generator on an elementary tensor."""
        ca = self.on_site.coefficients(site_obs)
        cx = self.bond.coefficients(bond_obs)
        e3 = self.map_at(parameter).reshape(
            self.bond.dim, self.on_site.dim, self.bond.dim
        )
        return self.bond.from_coefficients(np.einsum("bag,a,g->b", e3, ca, cx))

    def validate(
        self,
        parameter,
        n_probe: int = 32,
        rng: np.random.Generator | None = None,
    ) -> None:
        """Unitality, positivity on sampled positive inputs, consistency."""
        if rng is None:
            rng = np.random.default_rng(0)
        one_out = self.apply_e(parameter, self.on_site.identity(), self.bond.identity())
        if norm(self.bond, one_out - self.bond.identity(), "inf") > 1e-10:
            raise HypothesisViolationError("generator is not unital")
        pair = tensor_algebra(self.on_site, self.bond)
        emat = self.map_at(parameter)
        for _ in range(n_probe):
            z = random_state(pair, "full", rng).element
            cz = _site_coefficients([self.on_site, self.bond], z)
            out = self.bond.from_coefficients(emat @ cz)
            if not is_positive(self.bond, out):
                raise HypothesisViolationError(
                    "generator failed a positivity probe"
                )
        phi = self.induced_phi(parameter)
        for g in range(self.bond.dim):
            x = self.bond.basis_element(g)
            lhs = self.apply_e(parameter, self.on_site.identity(), x)
            rhs = phi.apply(x)
            if norm(self.bond, lhs - rhs, "inf") > 1e-12 * max(
                1.0, norm(self.bond, rhs, "inf")
            ):
                raise HypothesisViolationError(
                    "induced bond map disagrees with the generator on 1 (x) probes"
                )


def product_generator(
    on_site: TracialAlgebra, bond: TracialAlgebra
) -> GeneratorMap:
    """E(a (x) x) = tau(a) x; generates the infinite product trace state."""
    c1 = on_site.coefficients(on_site.identity())
    mat = np.kron(c1[None, :], np.eye(bond.dim))

    def build(_parameter) -> np.ndarray:
        return mat

    return GeneratorMap(on_site, bond, "product", build)


def random_unital_generator(
    on_site: TracialAlgebra,
    bond: TracialAlgebra,
    kraus_rank: int = 3,
    recipe: str = "random_unital_cp",
) -> GeneratorMap:
    """Random completely positive unital generator (single-block algebras).

    Draws Gaussian Kraus factors from the pair representation to the bond
    representation and conjugates by the inverse square root of the image
    of the identity so the result is exactly unital.
    """
    if on_site.n_blocks != 1 or bond.n_blocks != 1:
        raise RejectedInputError("random generators support single-block algebras")
    n_m, n_w = on_site.block_dims[0], bond.block_dims[0]
    pair_mats = [  # the product basis of the pair, site index major
        np.kron(a, g) for a in on_site._basis[0] for g in bond._basis[0]
    ]

    def build(parameter) -> np.ndarray:
        rng = np.random.default_rng(parameter_seed(parameter))
        for _ in range(64):
            kraus = [
                rng.standard_normal((n_w, n_m * n_w))
                + 1j * rng.standard_normal((n_w, n_m * n_w))
                for _ in range(kraus_rank)
            ]
            r_one = sum(v @ v.conj().T for v in kraus)
            w, u = np.linalg.eigh(r_one)
            if w[0] > 1e-8 * w[-1]:
                break
        inv_half = (u / np.sqrt(w)) @ u.conj().T
        cols = []
        for z in pair_mats:
            out = inv_half @ sum(v @ z @ v.conj().T for v in kraus) @ inv_half
            cols.append(bond.coefficients(AlgebraElement(bond, [out])))
        return np.stack(cols, axis=1)

    return GeneratorMap(
        on_site, bond, recipe, build, {"kraus_rank": kraus_rank}
    )


def bond_process_ensemble(generator: GeneratorMap) -> ChannelEnsemble:
    """Preduals of the induced bond maps, as a channel ensemble."""

    return ChannelEnsemble(
        generator.bond,
        f"bond_predual[{generator.recipe}]",
        lambda parameter: predual(generator.induced_phi(parameter)),
        cache_size=1024,
    )


# ---------------------------------------------------------------------------
# chain evaluation
# ---------------------------------------------------------------------------


def _core_eval(
    generator: GeneratorMap,
    driver: ErgodicDriver,
    obs: LocalObservable,
    tail: np.ndarray,
) -> np.ndarray:
    """Consume the observable's support right to left, starting from tail.

    The working array never exceeds (site dim)^(remaining sites) by
    (bond dim); for product observables this reproduces the nested
    one-site compositions exactly.
    """
    d_m, d_w = generator.on_site.dim, generator.bond.dim
    r = np.outer(obs.coeff_tensor, tail)
    for site in range(obs.support[1], obs.support[0] - 1, -1):
        e3 = generator.map_at(driver.point_at(site)).reshape(d_w, d_m, d_w)
        r = r.reshape(-1, d_m, d_w)
        r = np.einsum("kaw,baw->kb", r, e3)
    return r.reshape(d_w)


def iterate_generator(
    generator: GeneratorMap,
    driver: ErgodicDriver,
    interval: tuple[int, int],
    obs: LocalObservable,
) -> AlgebraElement:
    """Nested generator value of an observable over a window.

    Sites right of the support telescope away by unitality; sites to the
    left apply the induced bond map.  The support must sit inside the
    window.
    """
    m, n = int(interval[0]), int(interval[1])
    lo, hi = obs.support
    if lo < m or hi > n:
        raise RejectedInputError(
            f"support [{lo},{hi}] exceeds the window [{m},{n}]"
        )
    w = _core_eval(generator, driver, obs, generator.bond.coefficients(generator.bond.identity()))
    for site in range(lo - 1, m - 1, -1):
        w = generator.induced_phi(driver.point_at(site)).matrix @ w
    return generator.bond.from_coefficients(w)


@dataclass
class PsiEstimate:
    """A finite-window chain-state value with its certified truncation.

    ``flank_certificates`` counts the flank certificates computed for this
    value and ``flank_certificates_reused`` those the generator's
    certificate cache supplied.
    """

    value: complex
    window_N: int
    truncation_bound: float
    z_state: State
    flank_upper: float
    widen_advisory: bool
    flank_certificates: int
    flank_certificates_reused: int


def _flank_evolution(
    generator: GeneratorMap,
    driver: ErgodicDriver,
    start: int,
    stop_before: int,
) -> tuple[np.ndarray, float, int, int]:
    """Evolve the bond probe from ``start`` up to ``stop_before - 1``.

    Returns the evolved state coefficients, the certified contraction
    upper bound of the composed flank (``certified_upper`` of the whole
    flank, taken once at its full length), and the numbers of
    certificates computed and taken from the generator's cache (one of
    the two is 1).  A certificate depends only on the composed matrix,
    which the driver points of the flank determine.
    """
    bond = generator.bond
    c1 = bond.coefficients(bond.identity())
    if stop_before <= start:
        return c1, 1.0, 0, 0
    z, flank = c1, None
    points = tuple(driver.point_at(site) for site in range(start, stop_before))
    for point in points:
        gamma_mat = generator.induced_phi(point).matrix.T
        z = gamma_mat @ z
        z = z / np.dot(c1, z).real  # tracial up to roundoff
        flank = gamma_mat if flank is None else gamma_mat @ flank
    upper = generator._cert_cache.get(points)
    if upper is not None:
        return z, upper, 0, 1
    comp = SuperOperator(bond, flank, MapFlags(positive="yes", faithful="yes"))
    upper = min(1.0, certified_upper(comp).upper_bound)
    if len(generator._cert_cache) < 512:
        generator._cert_cache[points] = upper
    return z, upper, 1, 0


def psi_of_parts(
    generator: GeneratorMap,
    driver: ErgodicDriver,
    parts: Sequence[LocalObservable],
    window: int,
    est_opts: EstimatorOptions | None = None,
    est_seed: int = 0,
) -> PsiEstimate:
    """Chain-state value of a product of observables with disjoint supports.

    Parts are consumed right to left; gaps between parts apply the induced
    bond map, and the left flank down to ``-window`` closes against the
    evolved limit-state estimate.  The truncation bound is eight times the
    product of the part norms times the certified flank contraction, which
    comes from ``qmaps.certified_upper`` alone (Choi-matrix sandwich at the
    Perron state, no lower-bound search), taken once at the flank's full
    length and computed once per composed flank per generator.
    ``est_opts`` and ``est_seed`` are deprecated and ignored: the
    certificate draws no random numbers and takes no search options.  They
    stay accepted so that existing callers keep working.
    """
    if not parts:
        raise RejectedInputError("need at least one observable")
    parts = sorted(parts, key=lambda p: p.support[0])
    for left, right in zip(parts, parts[1:]):
        if left.support[1] >= right.support[0]:
            raise RejectedInputError("observable supports must be disjoint")
    lo = parts[0].support[0]
    hi = parts[-1].support[1]
    if lo < -window or hi > window:
        raise RejectedInputError(
            f"supports [{lo},{hi}] exceed the window [-{window},{window}]"
        )
    bond = generator.bond
    w = bond.coefficients(bond.identity())
    cursor = hi  # rightmost unconsumed site
    for part in reversed(parts):
        for site in range(cursor, part.support[1], -1):
            w = generator.induced_phi(driver.point_at(site)).matrix @ w
        w = _core_eval(generator, driver, part, w)
        cursor = part.support[0] - 1
    z, flank_upper, computed, reused = _flank_evolution(generator, driver, -window, lo)
    value = complex(np.dot(w, z))
    norm_prod = math.prod(p.norm_inf for p in parts)
    bound = 8.0 * norm_prod * flank_upper
    z_state = State.from_element(bond.from_coefficients(z).hermitize())
    return PsiEstimate(
        value=value,
        window_N=window,
        truncation_bound=bound,
        z_state=z_state,
        flank_upper=flank_upper,
        widen_advisory=flank_upper > 0.5 and lo > -window,
        flank_certificates=computed,
        flank_certificates_reused=reused,
    )


def psi_value(
    generator: GeneratorMap,
    driver: ErgodicDriver,
    obs: LocalObservable,
    window: int,
    **kwargs,
) -> PsiEstimate:
    """Chain-state value of a single local observable at a finite window."""
    return psi_of_parts(generator, driver, [obs], window, **kwargs)


def translation_covariance_check(
    generator: GeneratorMap,
    driver: ErgodicDriver,
    obs: LocalObservable,
    k: int,
    window: int,
    **kwargs,
) -> tuple[float, float]:
    """|value of the shifted observable - value at the shifted point|.

    Returns the deviation and the combined truncation budget of the two
    finite-window evaluations.
    """
    lhs = psi_value(generator, driver, obs.shifted(k), window, **kwargs)
    rhs = psi_value(generator, driver.shift(k), obs, window, **kwargs)
    dev = abs(lhs.value - rhs.value)
    return dev, lhs.truncation_bound + rhs.truncation_bound


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------


@dataclass
class DecayRow:
    gap: int
    corr: float
    bound_rhs: float
    passed: bool
    flank_upper: float


@dataclass
class DecayReport:
    rows: list
    kappa_fit: float
    e_fit: float
    window: int
    degenerate: bool

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)


def clustering_experiment(
    generator: GeneratorMap,
    driver: ErgodicDriver,
    obs_a: LocalObservable,
    obs_b: LocalObservable,
    gaps: Sequence[int],
    window: int,
    pre_run_length: int | None = None,
    est_opts: EstimatorOptions | None = None,
    est_seed: int = 0,
) -> DecayReport:
    """Correlation decay of the generated state across a widening gap.

    For each gap the left observable ends at site 0 and the right one
    starts at the gap, and ``|corr| = |psi(a b) - psi(a) psi(b)|`` is
    checked against ``8 ||a|| ||b|| min(1, U_mid)``, where ``U_mid`` is
    ``certified_upper`` of the composed bond predual over the sites
    strictly between the two, ``gamma_{gap-1} o ... o gamma_1`` (1 at
    gap 1, where that middle is empty).

    Why it holds: write ``y = E_b(b (x) 1)`` for the bond observable that
    b leaves, ``M = phi_1 o ... o phi_{gap-1}`` for the middle, z for the
    flank state left of a, ``A(x) = E_a(a (x) x)`` and the state
    ``omega = z o E_a(1 (x) .)``.  Then ``psi(a b) = z(A(M y))``,
    ``psi(a) = z(A(1))`` and ``psi(b) = omega(M y)``, so
    ``corr = z(A(M y - omega(M y) 1))``.  Split a into its Hermitian parts
    and each of those into ``h+ - h-``: every ``x -> z(A(h+- (x) x))`` is
    ``t rho`` for a state rho, with total mass ``z(A(|h|)) <= ||a||``, and
    contributes ``t (M_* rho - M_* omega)(y)``.  The Hennion metric
    dominates half the trace-norm distance and the certificate bounds the
    metric diameter of the image of ``M_*``, so
    ``||M_* rho - M_* omega||_1 <= 2 min(1, U_mid)``; and E_b maps each
    Hermitian part of b into norm at most ``||b||``.  The constant 8 is 2
    (trace norm) times 2 (Hermitian parts of a) times 2 (of b).  This is
    the clustering argument for finitely correlated states (Movassagh and
    Schenker 2021) with the certified contraction of the middle in place
    of an exponential rate.  z may be any state, so the bound holds at
    every finite window.  It needs E_a and E_b positive on the tensor
    products they act on, as they are for completely positive generators
    (both recipes here) and for single-site observables.

    The decay exponent ``kappa_fit`` and gap-1 prefactor ``e_fit`` are
    fitted to the correlations and are descriptive only.
    ``pre_run_length``, ``est_opts`` and ``est_seed`` are deprecated and
    ignored: the bound runs no estimated process.  They stay accepted so
    that existing callers keep working.
    """
    gaps = [int(gap) for gap in gaps]
    if any(gap < 1 for gap in gaps):
        raise RejectedInputError("gaps must be >= 1")
    a_placed = obs_a.shifted(-obs_a.support[1])  # ends at site 0
    value_a = psi_of_parts(generator, driver, [a_placed], window).value

    # the middles' certificates first: they build the bond maps of the
    # sites between, which the chain-state values below then reuse
    mid_uppers = [_flank_evolution(generator, driver, 1, gap)[1] for gap in gaps]
    rows = []
    for gap, mid_upper in zip(gaps, mid_uppers):
        b_placed = obs_b.shifted(gap - obs_b.support[0])  # starts at site gap
        joint = psi_of_parts(generator, driver, [a_placed, b_placed], window).value
        value_b = psi_of_parts(generator, driver, [b_placed], window).value
        corr = abs(joint - value_a * value_b)
        rhs = 8.0 * obs_a.norm_inf * obs_b.norm_inf * mid_upper
        rows.append(
            DecayRow(
                gap=gap,
                corr=float(corr),
                bound_rhs=float(rhs),
                passed=bool(corr <= rhs * (1.0 + 1e-9) + 1e-12),
                flank_upper=float(mid_upper),
            )
        )

    fit_rows = [r for r in rows if r.corr > 1e-14]
    degenerate = len(fit_rows) < 2
    if degenerate:
        kappa_fit, e_fit = 0.0, 0.0
    else:
        g = np.array([r.gap for r in fit_rows], dtype=float)
        y = np.log([r.corr for r in fit_rows])
        slope, intercept = np.polyfit(g, y, 1)
        kappa_fit = float(np.exp(slope))
        e_fit = float(np.exp(intercept + slope))  # prefactor at gap 1
    return DecayReport(
        rows=rows,
        kappa_fit=kappa_fit,
        e_fit=e_fit,
        window=window,
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# ergodic averaging
# ---------------------------------------------------------------------------


@dataclass
class BirkhoffReport:
    n_values: list
    partial_averages: list  # one array of partial averages per sampled point
    limit_estimates: list
    cross_sample_spread: float
    invariance_deviation: float
    budget: float


def _driver_variants(
    driver: ErgodicDriver, count: int, seed: int
) -> list[ErgodicDriver]:
    rng = np.random.default_rng(derive_seed(seed, "omega"))
    out = []
    for i in range(count):
        if driver.kind == "constant":
            out.append(driver)
        elif driver.kind == "rotation":
            out.append(
                ErgodicDriver(
                    "rotation", alpha=driver.alpha, omega0=float(rng.random())
                )
            )
        else:
            out.append(
                ErgodicDriver(
                    driver.kind,
                    master_seed=int(rng.integers(1 << 62)),
                    period=driver.period,
                )
            )
    return out


def birkhoff_average(
    generator: GeneratorMap,
    driver: ErgodicDriver,
    obs: LocalObservable,
    n_max: int,
    omega_samples: int = 1,
    window: int = 30,
    est_opts: EstimatorOptions | None = None,
    est_seed: int = 0,
) -> BirkhoffReport:
    """Partial orbit averages of the chain-state value of an observable.

    For every sampled point the values along the orbit are evaluated at a
    fixed flank window and averaged over symmetric index ranges up to
    ``n_max``; the cross-sample spread of the deepest average and the
    deviation of the average under a one-site shift of the observable are
    reported against the combined truncation budget.  ``est_seed`` seeds
    the sampled points; ``est_opts`` is deprecated and ignored, since the
    flank certificates of ``psi_of_parts`` take no search options.
    """
    drivers = _driver_variants(driver, omega_samples, est_seed)
    n_values = list(range(1, n_max + 1))
    partials_all, limits = [], []
    budget = 0.0
    shift_dev = 0.0
    for i, drv in enumerate(drivers):
        vals = {}
        for n in range(-n_max, n_max + 1):
            est = psi_value(generator, drv.shift(n), obs, window)
            vals[n] = est.value
            budget = max(budget, est.truncation_bound)
        partials = np.array(
            [
                np.mean([vals[n] for n in range(-nn, nn + 1)])
                for nn in n_values
            ]
        )
        partials_all.append(partials)
        limits.append(complex(partials[-1]))
        if i == 0:
            shifted = psi_value(generator, drv.shift(1), obs, window)
            # one-site covariance: the shifted average equals the average of
            # the orbit values displaced by one index
            disp = np.mean([vals[n] for n in range(-n_max + 1, n_max + 1)] + [shifted.value])
            shift_dev = abs(disp - partials[-1])
    spread = 0.0
    for i in range(len(limits)):
        for j in range(i + 1, len(limits)):
            spread = max(spread, abs(limits[i] - limits[j]))
    return BirkhoffReport(
        n_values=n_values,
        partial_averages=partials_all,
        limit_estimates=limits,
        cross_sample_spread=spread,
        invariance_deviation=float(shift_dev),
        budget=float(budget),
    )

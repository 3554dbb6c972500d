"""Ergodic drivers, channel ensembles, and interval compositions of channels.

A driver realizes a two-sided orbit of parameters: the channel at site n is
a pure function of ``point_at(n)``, so the underlying shift is a literal
index shift and runs are reproducible bit for bit.  A process record holds
the ordered composition over an integer interval together with a trace of
certified contraction intervals, from which the asymptotic collapse rate,
exponential-domination prefactors, stopping times, and limit-state
estimates are extracted.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    State,
    TracialAlgebra,
    norm,
    random_state,
    trace,
)
from .config import DEFAULT_TOLS, Tolerances
from .errors import (
    HennionLabError,
    HypothesisViolationError,
    InvertibilityViolationError,
    NotEnoughDataError,
    RejectedInputError,
    ShapeMismatchError,
)
from .qmaps import (
    MapFlags,
    SuperOperator,
    compose,
    contraction_estimate,
    faithfulness_check,
    from_kraus,
    from_strongly_summable,
    projective_action,
    replacement_channel,
    validate_flags,
)

__all__ = [
    "ErgodicDriver",
    "ChannelEnsemble",
    "ProcessRecord",
    "EstimatorOptions",
    "derive_seed",
    "start_process",
    "extend_process",
    "estimate_rate_C",
    "stopping_time_nu",
    "limit_state_estimate",
    "equivariance_residual",
    "dual_normalized_value",
    "rank_one_collapse_check",
    "CollapseBoundReport",
    "ProcessPlan",
    "run_experiment",
    "ExperimentRows",
]

_COUNTER_OFFSET = 1 << 62  # shifts the two-sided index range into Philox counters

# Contraction constants below this sit at the double-precision floor: a fresh
# estimate there measures roundoff, so the trace carries the last certified
# bound, and the rate fit and the prefactors ignore such entries.
RESOLUTION_FLOOR = 1e-13

# A composed matrix is rescaled to unit trace of its image of 1 every this
# many lengths; projective quantities do not see the scale.
_RENORM_STRIDE = 25

# lengths over which rank_one_collapse_check's prefactor must settle
_STABILIZE_WINDOW = 20


def derive_seed(master_seed: int, name: str) -> int:
    """Stable named substream seed; adding consumers never perturbs others."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def parameter_seed(parameter) -> int:
    """Deterministic generator seed from any driver parameter.

    Integer parameters pass through; circle parameters (floats) map through
    their bit pattern so nearby points stay distinguishable.
    """
    if isinstance(parameter, (int, np.integer)):
        return int(parameter)
    if isinstance(parameter, (float, np.floating)):
        return int(np.float64(parameter).view(np.uint64))
    return derive_seed(0, repr(parameter))


def _philox_uint64(key: int, counter: int) -> int:
    bg = np.random.Philox(key=key % (1 << 64), counter=[counter, 0, 0, 0])
    return int(np.random.Generator(bg).integers(0, 1 << 63))


@dataclass(frozen=True)
class ErgodicDriver:
    """A point, a measure-preserving shift, and the orbit of parameters.

    ``iid_shift`` yields statistically independent per-site seeds from a
    counter-keyed generator, ``rotation`` walks an irrational rotation of
    the circle, ``cyclic`` repeats a seeded period, and ``constant`` is the
    one-point system.  ``shift(k)`` returns the driver at the k-fold
    shifted point; ``point_at`` is deterministic in all cases.
    """

    kind: str
    master_seed: int = 0
    alpha: float = 0.0
    omega0: float = 0.0
    period: int = 1
    index_offset: int = 0

    def __post_init__(self):
        if self.kind not in ("iid_shift", "rotation", "cyclic", "constant"):
            raise RejectedInputError(f"unknown driver kind {self.kind!r}")
        if self.kind == "cyclic" and self.period < 1:
            raise RejectedInputError("cyclic driver needs period >= 1")

    def point_at(self, n: int):
        m = n + self.index_offset
        if self.kind == "constant":
            return 0
        if self.kind == "rotation":
            return float((self.omega0 + m * self.alpha) % 1.0)
        if self.kind == "cyclic":
            r = m % self.period
            return _philox_uint64(derive_seed(self.master_seed, "cyclic"), r)
        return _philox_uint64(
            derive_seed(self.master_seed, "iid"), m + _COUNTER_OFFSET
        )

    def shift(self, k: int) -> "ErgodicDriver":
        return replace(self, index_offset=self.index_offset + k)


class ChannelEnsemble:
    """A measurable assignment of parameters to channels.

    ``channel_at`` is a pure function of the driver parameter; emitted maps
    are validated faithful and positive on a construction-time sample.
    """

    def __init__(
        self,
        algebra: TracialAlgebra,
        recipe: str,
        builder: Callable[[object], SuperOperator],
        params: dict | None = None,
        cache_size: int = 64,
    ):
        self.algebra = algebra
        self.recipe = recipe
        self.params = params or {}
        self._builder = builder
        self._cache: dict = {}
        self._cache_size = cache_size

    def channel_at(self, parameter) -> SuperOperator:
        key = parameter
        if key in self._cache:
            return self._cache[key]
        ch = self._builder(parameter)
        if len(self._cache) < self._cache_size:
            self._cache[key] = ch
        return ch

    def validate(self, driver: ErgodicDriver) -> None:
        """Check that the channels at sites 0, 1 and 2 are positive and faithful."""
        for n in (0, 1, 2):
            ch = validate_flags(self.channel_at(driver.point_at(n)))
            if ch.flags.positive != "yes":
                raise HypothesisViolationError(
                    f"ensemble {self.recipe} emitted a map without validated positivity"
                )
            if faithfulness_check(ch) != "yes":
                raise HypothesisViolationError(
                    f"ensemble {self.recipe} emitted a non-faithful map"
                )

    # -- recipes ----------------------------------------------------------

    @staticmethod
    def constant(channel: SuperOperator, recipe: str = "constant") -> "ChannelEnsemble":
        return ChannelEnsemble(channel.algebra, recipe, lambda _p: channel)

    @staticmethod
    def mixture(
        components: Sequence[SuperOperator],
        probs: Sequence[float],
        recipe: str = "mixture",
    ) -> "ChannelEnsemble":
        """Pick one fixed component per site, seeded by the parameter."""
        if len(components) != len(probs) or not components:
            raise RejectedInputError("mixture needs matching components and probabilities")
        p = np.asarray(probs, dtype=float)
        if abs(p.sum() - 1.0) > 1e-12 or np.any(p < 0):
            raise RejectedInputError("mixture probabilities must be a distribution")
        cum = np.cumsum(p)
        alg = components[0].algebra

        def build(parameter) -> SuperOperator:
            u = np.random.default_rng(parameter_seed(parameter)).random()
            return components[int(np.searchsorted(cum, u))]

        return ChannelEnsemble(alg, recipe, build, {"probs": list(map(float, probs))})

    @staticmethod
    def random_kraus(
        algebra: TracialAlgebra,
        k: int,
        mix_eps: float,
        target: State | None = None,
        recipe: str = "random_kraus",
    ) -> "ChannelEnsemble":
        """Gaussian Kraus channel mixed with a replacement channel.

        The replacement component guarantees faithfulness and gives the
        composed process a positive chance of strict contraction.
        """
        if not 0.0 < mix_eps <= 1.0:
            raise RejectedInputError("mix_eps must lie in (0, 1]")
        x0 = target if target is not None else algebra.maximally_mixed()
        rep = replacement_channel(algebra, x0)

        def build(parameter) -> SuperOperator:
            rng = np.random.default_rng(parameter_seed(parameter))
            ops = []
            for _ in range(k):
                blocks = [
                    rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                    for n in algebra.block_dims
                ]
                ops.append(AlgebraElement(algebra, blocks))
            raw = from_kraus(algebra, ops)
            scale = trace(algebra, raw.apply_dual(algebra.identity())).real
            mat = (1.0 - mix_eps) * raw.matrix / scale + mix_eps * rep.matrix
            ch = SuperOperator(
                algebra,
                mat,
                # a mixture of positive maps; the replacement component
                # dominates the trace, so the channel is faithful
                MapFlags(positive="yes", faithful="yes"),
                {"kind": "composition", "factors": [raw.provenance, rep.provenance]},
            )
            return validate_flags(ch)

        return ChannelEnsemble(algebra, recipe, build, {"k": k, "mix_eps": mix_eps})

    @staticmethod
    def strongly_summable_family(
        algebra: TracialAlgebra,
        n_pairs: int,
        eta: float,
        recipe: str = "strongly_summable_family",
    ) -> "ChannelEnsemble":
        """Random pairs (a_i, m_i) with every m_i sandwiched around one state."""
        if not 0.0 < eta <= 1.0:
            raise RejectedInputError("sandwich constant must lie in (0, 1]")

        def build(parameter) -> SuperOperator:
            rng = np.random.default_rng(parameter_seed(parameter))
            base = random_state(algebra, "full", rng).element
            sq = AlgebraElement(
                algebra,
                [_psd_sqrt(blk) for blk in base.blocks],
            )
            pairs = []
            for _ in range(n_pairs):
                a = random_state(algebra, "full", rng).element
                # spectrum of the middle factor inside [eta, 1/eta]
                mid_blocks = []
                for n in algebra.block_dims:
                    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                    h = (g + g.conj().T) / 2.0
                    w, v = np.linalg.eigh(h)
                    span = np.interp(
                        w, [w.min(), max(w.max(), w.min() + 1e-9)], [eta, 1.0 / eta]
                    )
                    mid_blocks.append((v * span) @ v.conj().T)
                mid = AlgebraElement(algebra, mid_blocks)
                pairs.append((a, sq @ mid @ sq))
            return from_strongly_summable(algebra, pairs)

        return ChannelEnsemble(algebra, recipe, build, {"n_pairs": n_pairs, "eta": eta})

    @staticmethod
    def interpolated(
        algebra: TracialAlgebra,
        curve: Callable[[float], SuperOperator],
        recipe: str = "interpolated",
    ) -> "ChannelEnsemble":
        """Map-valued curve over a circle parameter (for rotation drivers)."""
        return ChannelEnsemble(algebra, recipe, lambda t: curve(float(t)), cache_size=0)


def _psd_sqrt(blk: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(blk)
    return (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T


# ---------------------------------------------------------------------------
# process records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimatorOptions:
    """Sizes of the lower-bound search of every fresh per-length estimate.

    ``eta_samples`` is deprecated and ignored: it sized the sampled search
    that the Choi-matrix certificate replaced, and stays only so that
    existing configurations keep loading.
    """

    n_samples: int = 24
    refine_iters: int = 12
    eta_samples: int = 16

    def call_kwargs(self) -> dict:
        return {"n_samples": self.n_samples, "refine_iters": self.refine_iters}


@dataclass
class CTraceEntry:
    length: int
    lower: float
    upper: float
    # True when freshly estimated; False once the upper bound is below
    # RESOLUTION_FLOOR, where it is carried with lower bound 0
    exact: bool
    # how the upper bound was obtained: the estimate's own certificate
    # ("choi", "co_choi", "mixed", "none"), or "carried" from a shorter
    # composition, since c(s . t) <= c(s)
    upper_method: str


@dataclass
class ProcessRecord:
    """An interval composition with its certified contraction history.

    ``gamma_right`` keeps the top index fixed and prepends older channels
    on the right as m decreases; ``phi_left`` keeps the bottom index fixed
    and composes newer channels on the left as n increases.  The composed
    matrix is rescaled periodically with the log of the accumulated scale
    kept separately; all projective quantities are scale invariant.
    ``prefixes`` holds the composed matrix at every length, as rescaled,
    so that per-length diagnostics read the compositions instead of
    rebuilding them.  ``extend_process`` updates the record in place.
    """

    direction: str
    driver: ErgodicDriver
    ensemble: ChannelEnsemble
    n_anchor: int
    m_anchor: int
    composed: SuperOperator
    log_scale: float = 0.0
    prefixes: list = field(default_factory=list)  # composed.matrix per length
    c_trace: list = field(default_factory=list)
    nu_certified: int | None = None
    nu_optimistic: int | None = None
    rate_C: float | None = None
    rate_r2: float | None = None
    rate_exact_zero: bool = False
    kappa: float | None = None
    D_prefactor: float | None = None
    limit_state: State | None = None
    est_opts: EstimatorOptions = field(default_factory=EstimatorOptions)
    est_rng_seed: int = 0
    convergence_errors: int = 0
    sup_dual_inverse: float = 0.0  # running sup of ||dual(composed)(composed(1)^-1)||_inf
    sup_dual_inverse_skipped: int = 0  # lengths left out of that sup

    @property
    def length(self) -> int:
        return self.n_anchor - self.m_anchor + 1

    def latest_upper(self) -> float:
        return self.c_trace[-1].upper if self.c_trace else 1.0

    def latest_lower(self) -> float:
        return self.c_trace[-1].lower if self.c_trace else 0.0


def _estimate_entry(record: ProcessRecord, tols: Tolerances) -> CTraceEntry:
    rng = np.random.default_rng(
        derive_seed(record.est_rng_seed, f"estimate:{record.length}")
    )
    est = contraction_estimate(
        record.composed, rng=rng, tols=tols, **record.est_opts.call_kwargs()
    )
    if est.convergence_error:
        record.convergence_errors += 1
    upper, method = est.upper_bound, est.upper_method
    if record.c_trace and record.latest_upper() < upper:  # monotone under composition
        upper, method = record.latest_upper(), "carried"
    return CTraceEntry(record.length, est.lower_bound, upper, True, method)


def _update_nu(record: ProcessRecord, entry: CTraceEntry) -> None:
    if record.nu_certified is None and entry.upper < 1.0 - 1e-6:
        record.nu_certified = entry.length - 1
    if record.nu_optimistic is None and entry.lower < 1.0 - 1e-9 and entry.exact:
        record.nu_optimistic = entry.length - 1


def _track_sup_condition(record: ProcessRecord, tols: Tolerances) -> None:
    # log sup_n ||Gamma*(Gamma(1)^-1)||_inf per run, counting the lengths it skips
    alg = record.composed.algebra
    g1 = record.composed.apply(alg.identity()).hermitize(tols)
    try:
        eigs = [np.linalg.eigh(blk) for blk in g1.blocks]
        if min(w[0] for w, _ in eigs) > 0:
            inv = AlgebraElement(alg, [(v / w) @ v.conj().T for w, v in eigs])
            val = norm(alg, record.composed.apply_dual(inv), "inf")
            record.sup_dual_inverse = max(record.sup_dual_inverse, val)
            return
    except np.linalg.LinAlgError:
        pass
    record.sup_dual_inverse_skipped += 1


def start_process(
    driver: ErgodicDriver,
    ensemble: ChannelEnsemble,
    direction: str,
    start_index: int,
    est_opts: EstimatorOptions | None = None,
    est_rng_seed: int = 0,
    tols: Tolerances = DEFAULT_TOLS,
) -> ProcessRecord:
    """A length-one process at ``start_index``."""
    if direction not in ("gamma_right", "phi_left"):
        raise RejectedInputError(f"unknown direction {direction!r}")
    ch = ensemble.channel_at(driver.point_at(start_index))
    record = ProcessRecord(
        direction=direction,
        driver=driver,
        ensemble=ensemble,
        n_anchor=start_index,
        m_anchor=start_index,
        composed=ch,
        est_opts=est_opts or EstimatorOptions(),
        est_rng_seed=est_rng_seed,
    )
    record.prefixes.append(ch.matrix)
    entry = _estimate_entry(record, tols)
    record.c_trace.append(entry)
    _update_nu(record, entry)
    _track_sup_condition(record, tols)
    return record


def extend_process(record: ProcessRecord, tols: Tolerances = DEFAULT_TOLS) -> ProcessRecord:
    """Compose one more channel at the next driver index, in place.

    For ``gamma_right`` the next channel sits at ``m_anchor - 1`` and is
    composed on the right; for ``phi_left`` it sits at ``n_anchor + 1`` and
    is composed on the left.  The contraction trace is extended with a
    fresh estimate while the last certified upper bound is at least
    ``RESOLUTION_FLOOR``; below it, that bound is carried with the trivial
    lower bound 0 and nothing is estimated.
    """
    if record.direction == "gamma_right":
        idx = record.m_anchor - 1
    else:
        idx = record.n_anchor + 1
    step = record.ensemble.channel_at(record.driver.point_at(idx))
    if not step.algebra.compatible(record.composed.algebra):
        raise ShapeMismatchError("step channel lives on a different algebra")
    if record.direction == "gamma_right":
        record.composed = compose(record.composed, step)
        record.m_anchor = idx
    else:
        record.composed = compose(step, record.composed)
        record.n_anchor = idx

    if record.length % _RENORM_STRIDE == 0:
        alg = record.composed.algebra
        scale = trace(alg, record.composed.apply(alg.identity())).real
        if scale > 0:
            record.composed = record.composed.rescaled(1.0 / scale)
            record.log_scale += math.log(scale)
    record.prefixes.append(record.composed.matrix)

    if record.latest_upper() < RESOLUTION_FLOOR:
        entry = CTraceEntry(record.length, 0.0, record.latest_upper(), False, "carried")
    else:
        entry = _estimate_entry(record, tols)
    # composition never grows the constant: recorded bounds stay monotone
    # (clipping a valid lower bound by an earlier one keeps it valid)
    entry.lower = min(entry.lower, record.latest_lower())
    record.c_trace.append(entry)
    _update_nu(record, entry)
    _track_sup_condition(record, tols)
    return record


# ---------------------------------------------------------------------------
# rate, stopping time, limits
# ---------------------------------------------------------------------------


def estimate_rate_C(record: ProcessRecord) -> tuple[float, float]:
    """Collapse rate from the contraction trace.

    Fits log of the geometric interval midpoint against the composition
    length by least squares, after discarding the first quarter of the
    resolved entries (at least one) as burn-in.  Entries
    whose certified upper bound fell below ``RESOLUTION_FLOOR`` are
    excluded: the distance computation saturates at the double-precision
    floor there and would flatten the tail of the fit.  ``D_prefactor`` is the supremum of
    ``upper / kappa**length`` over the entries the fit may use, burn-in
    included.  When any certified upper bound is exactly zero the rate is
    reported as exact zero.  Requires at least ten contracting entries.
    """
    usable = [e for e in record.c_trace if e.exact and e.upper < 1.0]
    if usable and usable[0].upper <= 1e-12:
        record.rate_C, record.rate_r2 = 0.0, 1.0
        record.rate_exact_zero = True
        return 0.0, 1.0
    resolved = [e for e in usable if e.upper >= RESOLUTION_FLOOR]
    if len(resolved) < 10:
        raise NotEnoughDataError(
            f"need >= 10 contracting entries, have {len(resolved)}"
        )
    burn_in = max(1, len(resolved) // 4)
    entries = resolved[burn_in:] if len(resolved) > burn_in + 2 else resolved
    lengths = np.array([e.length for e in entries], dtype=float)
    mids = np.array(
        [
            0.5 * (math.log(max(e.lower, e.upper * 1e-12)) + math.log(e.upper))
            for e in entries
        ]
    )
    slope, intercept = np.polyfit(lengths, mids, 1)
    fitted = slope * lengths + intercept
    ss_res = float(np.sum((mids - fitted) ** 2))
    ss_tot = float(np.sum((mids - mids.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    c = float(np.exp(slope))
    record.rate_C, record.rate_r2 = c, r2
    record.kappa = min(0.999, c + 0.05)
    record.D_prefactor = max([1.0] + [e.upper / record.kappa**e.length for e in resolved])
    return c, r2


def stopping_time_nu(record: ProcessRecord) -> float:
    """First certified-contracting length minus one; +inf when not yet."""
    return float(record.nu_certified) if record.nu_certified is not None else math.inf


def limit_state_estimate(
    record: ProcessRecord,
    probe_states: Sequence[State],
    tols: Tolerances = DEFAULT_TOLS,
) -> tuple[State, float]:
    """Projective image of the first probe, plus the probe spread.

    The spread (largest pairwise trace-norm gap of the probe images) is
    bounded by twice the certified contraction upper bound at the current
    length.
    """
    if len(probe_states) < 2:
        raise RejectedInputError("need at least two probe states")
    if record.direction != "gamma_right":
        raise RejectedInputError("limit-state estimates apply to gamma_right records")
    images = [projective_action(record.composed, p, tols) for p in probe_states]
    alg = record.composed.algebra
    spread = 0.0
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            spread = max(
                spread, norm(alg, images[i].element - images[j].element, "one")
            )
    record.limit_state = images[0]
    return images[0], spread


def equivariance_residual(
    record: ProcessRecord,
    probe_a: State,
    probe_b: State,
    tols: Tolerances = DEFAULT_TOLS,
) -> float:
    """||gamma_next . X_n - X_{n+1}||_1 with independently probed estimates."""
    if record.direction != "gamma_right":
        raise RejectedInputError("equivariance applies to gamma_right records")
    alg = record.composed.algebra
    nxt = record.ensemble.channel_at(record.driver.point_at(record.n_anchor + 1))
    x_n = projective_action(record.composed, probe_a, tols)
    lhs = projective_action(nxt, x_n, tols)
    extended = compose(nxt, record.composed)
    x_n1 = projective_action(extended, probe_b, tols)
    return norm(alg, lhs.element - x_n1.element, "one")


def dual_normalized_value(
    record: ProcessRecord,
    a: AlgebraElement,
    tols: Tolerances = DEFAULT_TOLS,
) -> tuple[float, float]:
    """Scalar collapse of the normalized composition applied to an observable.

    Computes ``Z = P(1)^{-1/2} P(a) P(1)^{-1/2}``, where P is the composed
    map of a ``phi_left`` record and the trace-pairing adjoint of the
    composed map of a ``gamma_right`` record (the predual of a composition
    of preduals).  Returns ``tau(Z)`` and the deviation
    ``||Z - tau(Z) 1||_inf``, which is bounded by eight times the
    observable norm times the certified contraction bound of the dual
    composition.
    """
    composed = record.composed
    alg = composed.algebra
    p = composed.apply if record.direction == "phi_left" else composed.apply_dual
    p1 = p(alg.identity()).hermitize(tols)
    inv_half_blocks = []
    for blk in p1.blocks:
        w, v = np.linalg.eigh(blk)
        if w[0] <= 1e-10:
            raise InvertibilityViolationError(
                f"composed map applied to 1 has minimum eigenvalue {w[0]:.3e}"
            )
        inv_half_blocks.append((v / np.sqrt(w)) @ v.conj().T)
    inv_half = AlgebraElement(alg, inv_half_blocks)
    z = inv_half @ p(a) @ inv_half
    scalar = trace(alg, z).real
    resid = norm(alg, z - scalar * alg.identity(), "inf")
    return scalar, resid


@dataclass
class CollapseBoundReport:
    """Running rank-one-collapse prefactor along a composition."""

    lengths: list
    lhs_values: list
    e_running: list
    kappa: float
    stabilized: bool


def rank_one_collapse_check(
    record: ProcessRecord,
    a: AlgebraElement,
    kappa: float | None = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> CollapseBoundReport:
    """Track the rank-one collapse prefactor along the record's prefixes.

    At every length, on the composed map stored in ``record.prefixes``,
    the left side
    ``|| P(a)/tau(P(1)) - tau(B a) X ||_1`` is computed from the two
    directional limit estimates (X from the forward projective image, B
    from the dual image of the identity), and the running supremum of
    ``lhs / (kappa^length ||a||_inf)`` is recorded, with X the image of the
    maximally mixed state.  Left sides below ``RESOLUTION_FLOOR *
    ||a||_inf`` stop updating the supremum: there the computed gap is
    roundoff while the geometric weight keeps shrinking.  The report passes
    when the supremum moves by at most 1% over its last
    ``_STABILIZE_WINDOW`` lengths.
    """
    if kappa is None:
        kappa = record.kappa
    if kappa is None:
        raise RejectedInputError("kappa is required (estimate the rate first)")
    alg = record.composed.algebra
    probe = alg.maximally_mixed()
    a_norm = norm(alg, a, "inf")
    if a_norm <= 0:
        raise RejectedInputError("observable must be non-zero")
    one = alg.identity()

    lengths, lhs_values, e_running = [], [], []
    sup = 0.0
    for length, matrix in enumerate(record.prefixes, start=1):
        current = SuperOperator(alg, matrix)
        t_one = trace(alg, current.apply(one)).real
        if t_one <= tols.kernel_tol:
            break
        x_est = projective_action(current, probe, tols)
        b_img = current.apply_dual(one).hermitize(tols)
        b_est = b_img * (1.0 / trace(alg, b_img).real)
        lhs = norm(
            alg,
            current.apply(a) * (1.0 / t_one)
            - trace(alg, b_est @ a) * x_est.element,
            "one",
        )
        if lhs > RESOLUTION_FLOOR * a_norm:
            sup = max(sup, lhs / (kappa**length * a_norm))
        lengths.append(length)
        lhs_values.append(lhs)
        e_running.append(sup)
    stab = False
    if len(e_running) > _STABILIZE_WINDOW:
        tail = e_running[-_STABILIZE_WINDOW:]
        stab = (max(tail) - min(tail)) <= 0.01 * max(tail[-1], 1e-300)
    return CollapseBoundReport(lengths, lhs_values, e_running, float(kappa), stab)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


@dataclass
class ProcessPlan:
    """Lengths, probes and observables of one experiment."""

    m_start: int
    n_end: int
    direction: str = "gamma_right"
    probes: int = 3
    streams: int = 1

    def __post_init__(self):
        if self.n_end < self.m_start:
            raise RejectedInputError("plan needs n_end >= m_start")
        if self.probes < 2:
            raise RejectedInputError("plan needs at least two probes")


@dataclass
class ExperimentRows:
    """Per-length rows of one stream plus the finished record."""

    record: ProcessRecord
    rows: list  # (length, c_lower, c_upper, spread_l1, residual_inf, nu_hit, log_scale)


def run_experiment(
    driver: ErgodicDriver,
    ensemble: ChannelEnsemble,
    plan: ProcessPlan,
    observable: AlgebraElement | None = None,
    est_opts: EstimatorOptions | None = None,
    probe_seed: int = 0,
    tols: Tolerances = DEFAULT_TOLS,
) -> ExperimentRows:
    """Run one stream of the composition over the planned interval.

    Emits one row per length with the certified contraction interval, the
    probe spread, the scalar-collapse residual of the dual-normalized
    observable, the stopping-time indicator and the accumulated log scale.
    """
    alg = ensemble.algebra
    if observable is None:
        observable = alg.basis_element(min(1, alg.dim - 1))
    opts = est_opts or EstimatorOptions()
    rng = np.random.default_rng(derive_seed(probe_seed, "probes"))
    probes = [
        random_state(alg, kind, rng, tols=tols)
        for kind, _ in zip(
            ["full", "pure", "boundary", "full", "pure"], range(plan.probes)
        )
    ]
    start = plan.n_end if plan.direction == "gamma_right" else plan.m_start
    record = start_process(
        driver, ensemble, plan.direction, start, opts, probe_seed, tols
    )
    rows = []

    def push_row():
        entry = record.c_trace[-1]
        spread = float("nan")
        if plan.direction == "gamma_right":
            try:
                _, spread = limit_state_estimate(record, probes, tols)
            except HennionLabError:
                pass
        try:
            _, resid = dual_normalized_value(record, observable, tols)
        except InvertibilityViolationError:
            resid = float("nan")
        rows.append(
            (
                entry.length,
                entry.lower,
                entry.upper,
                spread,
                resid,
                1 if entry.upper < 1.0 - 1e-6 else 0,
                record.log_scale,
            )
        )

    push_row()
    total = plan.n_end - plan.m_start
    for _ in range(total):
        extend_process(record, tols=tols)
        push_row()
    try:
        estimate_rate_C(record)
    except NotEnoughDataError:
        pass
    return ExperimentRows(record=record, rows=rows)

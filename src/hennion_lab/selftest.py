"""Runnable invariant and acceptance suites.

Each check is a zero-argument callable returning a pass/fail record with a
one-line detail.  ``quick_checks`` finishes within seconds;
``full_checks`` additionally runs the complete acceptance battery at its
stated tolerances.  The pytest acceptance module drives the same
functions, so the CLI selftest and the test suite cannot drift apart.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
from scipy import stats

from .algebra import (
    AlgebraElement,
    State,
    checked_state_stack,
    make_algebra,
    norm,
    random_state,
    random_state_stack,
    trace,
    trace_norm_stack,
)
from .errors import HennionLabError
from .fcs import (
    LocalObservable,
    clustering_experiment,
    product_generator,
    psi_value,
    random_unital_generator,
    translation_covariance_check,
)
from .hennion import (
    classify_component,
    hennion_distance,
    hennion_distance_many,
    line_decomposition,
    m_quantity,
    m_quantity_bisection,
    m_quantity_inf_sampling,
)
from .process import (
    ChannelEnsemble,
    ErgodicDriver,
    EstimatorOptions,
    ProcessPlan,
    derive_seed,
    equivariance_residual,
    rank_one_collapse_check,
    run_experiment,
    stopping_time_nu,
)
from .qmaps import (
    SuperOperator,
    compose,
    contraction_estimate,
    dephasing_map,
    depolarizing_channel,
    is_strict_contraction,
    mixed_unitary_channel,
    predual,
    projective_action_many,
    replacement_channel,
    transpose_map,
)

@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def run_checks(checks: Iterable[tuple[str, Callable[[], tuple[bool, str]]]]):
    for name, fn in checks:
        t0 = time.time()
        try:
            passed, detail = fn()
        except HennionLabError as exc:
            passed, detail = False, f"error: {exc}"
        except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
            passed, detail = False, f"crash: {type(exc).__name__}: {exc}"
        yield CheckResult(name, passed, detail, time.time() - t0)


# ---------------------------------------------------------------------------
# shared samplers
# ---------------------------------------------------------------------------

ALGEBRAS = {
    "M2": lambda: make_algebra([2], [1.0]),
    "M3": lambda: make_algebra([3], [1.0]),
    "M2+M2": lambda: make_algebra([2, 2], [1.0, 3.0]),
}


def _random_psd(alg, rng, scaled: bool = True) -> AlgebraElement:
    kind = ["full", "boundary", "ranked", "pure"][int(rng.integers(4))]
    rank = min(alg.block_dims) if kind == "ranked" else None
    x = random_state(alg, kind, rng, rank=rank).element
    if scaled:
        x = x * float(rng.uniform(0.2, 5.0))
    return x


def _random_channel_suite(alg, rng, count: int) -> list[SuperOperator]:
    """Mixed bag of faithful positive maps for the certification suite."""
    out = []
    for i in range(count):
        ens = ChannelEnsemble.random_kraus(
            alg, k=2 + i % 3, mix_eps=0.15 + 0.5 * (i % 5) / 5.0
        )
        out.append(ens.channel_at(int(rng.integers(1 << 60))))
    return out


# ---------------------------------------------------------------------------
# acceptance criteria
# ---------------------------------------------------------------------------


def acc_01_m_oracle_equivalence(pairs_per_algebra: int = 200) -> tuple[bool, str]:
    worst_bis, worst_inf = 0.0, 0.0
    for label, build in ALGEBRAS.items():
        alg = build()
        rng = np.random.default_rng(derive_seed(101, label))
        for _ in range(pairs_per_algebra):
            x = _random_psd(alg, rng)
            y = _random_psd(alg, rng)
            me = m_quantity(x, y).value
            mb = m_quantity_bisection(x, y, tol=1e-10).value
            worst_bis = max(worst_bis, abs(me - mb))
            mi = m_quantity_inf_sampling(x, y, 64, rng).value
            worst_inf = max(worst_inf, me - mi)
    ok = worst_bis <= 1e-8 and worst_inf <= 1e-9
    return ok, f"max |eigen-bisection| {worst_bis:.2e}, max eigen-over-sampled {worst_inf:.2e}"


def acc_02_d_formula_equivalence(n_pairs: int = 200) -> tuple[bool, str]:
    worst = 0.0
    for label in ("M2", "M2+M2"):
        alg = ALGEBRAS[label]()
        rng = np.random.default_rng(derive_seed(102, label))
        for _ in range(n_pairs // 2):
            x = random_state(alg, "full", rng)
            y = random_state(alg, "full", rng)
            d_m = hennion_distance(x, y)
            d_l = line_decomposition(x, y).distance
            worst = max(worst, abs(d_m - d_l))
    return worst <= 1e-6, f"max |d_m - d_line| = {worst:.2e}"


def acc_03_diagonal_family_anchor() -> tuple[bool, str]:
    alg = ALGEBRAS["M2"]()

    def x_of(eta: float) -> State:
        return State.from_element(
            alg.element([np.diag([1.0, eta])]) * (2.0 / (1.0 + eta))
        )

    a, b = x_of(0.5), x_of(0.25)
    prod = m_quantity(a, b).value * m_quantity(b, a).value
    d = hennion_distance(a, b)
    ok = abs(prod - 0.5) <= 1e-12 and abs(d - 1.0 / 3.0) <= 1e-12
    return ok, f"product err {abs(prod - 0.5):.2e}, d err {abs(d - 1 / 3):.2e}"


def acc_04_metric_axioms(n_triples: int = 10_000) -> tuple[bool, str]:
    alg = ALGEBRAS["M2"]()
    states = random_state_stack(alg, ["full"] * (3 * n_triples), np.random.default_rng(104))
    x, y, z = ([blk[k::3] for blk in states] for k in range(3))
    dxy = hennion_distance_many(x, y)
    v_sym = np.abs(dxy - hennion_distance_many(y, x)).max()
    v_tri = (hennion_distance_many(x, z) - dxy - hennion_distance_many(y, z)).max()
    v_dom = (0.5 * trace_norm_stack(alg, [a - b for a, b in zip(x, y)]) - dxy).max()
    # every 100th triple: identity, and identity of indiscernibles at
    # tolerance (d small => 1-norm small) against a 2.5e-7 mixture with y
    x, y = ([blk[::100] for blk in u] for u in (x, y))
    near = checked_state_stack(alg, [a * (1.0 - 2.5e-7) + b * 2.5e-7 for a, b in zip(x, y)])[0]
    close = hennion_distance_many(x, near) <= 1e-8
    gaps = trace_norm_stack(alg, [a - b for a, b in zip(x, near)])[close] - 1e-6
    v_id = max(hennion_distance_many(x, x).max(), gaps.max(initial=0.0))
    ok = bool(v_sym <= 1e-10 and v_tri <= 1e-9 and v_dom <= 1e-10 and v_id <= 1e-8)
    return (
        ok,
        f"sym {v_sym:.1e}, triangle violation {max(v_tri, 0):.1e}, "
        f"domination violation {max(v_dom, 0):.1e}, identity {v_id:.1e}",
    )


def acc_05_component_geometry(n_instances: int = 1000) -> tuple[bool, str]:
    alg = ALGEBRAS["M2+M2"]()
    kinds = [k for i in range(n_instances) for k in ("full", ("pure", "boundary")[i % 2], "full")]
    stacks = random_state_stack(alg, kinds, np.random.default_rng(105))
    inv, sing, other = ([blk[k::3] for blk in stacks] for k in range(3))
    states = [State.from_element(AlgebraElement(alg, list(blocks))) for blocks in zip(*stacks)]
    mixed = [classify_component(a, b) != "distance_one" for a, b in zip(states[::3], states[1::3])]
    same = [classify_component(a, c) != "same_component" for a, c in zip(states[::3], states[2::3])]
    bad = np.count_nonzero((hennion_distance_many(inv, sing) != 1.0) | mixed)
    bad += np.count_nonzero((hennion_distance_many(inv, other) >= 1.0) | same)
    return bool(bad == 0), f"{bad} violations in {2 * n_instances} classified pairs"


def acc_06_contraction_anchors() -> tuple[bool, str]:
    alg = ALGEBRAS["M2"]()
    rng = lambda s: np.random.default_rng(s)  # noqa: E731
    rep = replacement_channel(
        alg, random_state(alg, "full", np.random.default_rng(1))
    )
    e_rep = contraction_estimate(rep, n_samples=24, refine_iters=0, rng=rng(2))
    ok_rep = (
        e_rep.lower_bound <= 1e-9
        and e_rep.upper_bound <= 1e-8
        and is_strict_contraction(rep, e_rep) == "certified_yes"
    )
    tr = transpose_map(alg)
    e_tr = contraction_estimate(tr, n_samples=1000, refine_iters=0, rng=rng(3))
    ok_tr = e_tr.lower_bound >= 0.99 and is_strict_contraction(tr, e_tr) == "certified_no"
    dep = depolarizing_channel(alg, 0.5)
    e_dep = contraction_estimate(dep, n_samples=64, refine_iters=30, rng=rng(4), polish=True)
    ok_dep = (
        e_dep.lower_bound >= 0.799
        and e_dep.lower_bound <= 0.8 + 1e-9
        and e_dep.upper_bound >= 0.8
    )
    ok = ok_rep and ok_tr and ok_dep
    return ok, (
        f"replacement [{e_rep.lower_bound:.1e},{e_rep.upper_bound:.1e}], "
        f"transpose lower {e_tr.lower_bound:.4f}, "
        f"depolarizing [{e_dep.lower_bound:.6f},{e_dep.upper_bound:.6f}]"
    )


def _sandwich_margin(
    s: SuperOperator, est, n_fresh: int, rng: np.random.Generator
) -> float:
    """Smallest eigenvalue margin of eta x0 <= s.x <= eta^-1 x0 over samples."""
    kinds = [("full", "pure", "boundary")[i % 3] for i in range(n_fresh)]
    images = projective_action_many(s, random_state_stack(s.algebra, kinds, rng))
    eta = est.cert.eta
    worst = np.inf
    for gx, x0 in zip(images, est.cert.fixed_point.element.blocks):
        for gap in (gx - eta * x0, (1.0 / eta) * x0 - gx):
            worst = min(worst, float(np.linalg.eigvalsh(gap)[:, 0].min()))
    return float(worst)


def acc_07_sandwich_round_trip(n_maps: int = 50, n_fresh: int = 1000) -> tuple[bool, str]:
    alg = ALGEBRAS["M2"]()
    rng = np.random.default_rng(107)
    suite = _random_channel_suite(alg, rng, n_maps - 2)
    suite.append(transpose_map(alg))
    suite.append(dephasing_map(alg))
    worst_margin = np.inf
    certified = 0
    for i, s in enumerate(suite):
        est = contraction_estimate(
            s, n_samples=24, refine_iters=10, rng=np.random.default_rng(1000 + i)
        )
        verdict = is_strict_contraction(s, est)
        if verdict == "certified_yes":
            certified += 1
            margin = _sandwich_margin(s, est, n_fresh, np.random.default_rng(2000 + i))
            worst_margin = min(worst_margin, margin)
        elif est.cert.fixed_point is None or est.cert.eta <= 0.0:
            continue  # no sandwich exists; correctly not certified
    ok = certified > 0 and worst_margin >= -1e-9
    iso_est = contraction_estimate(
        transpose_map(alg), n_samples=16, refine_iters=0, rng=np.random.default_rng(9)
    )
    ok = ok and is_strict_contraction(transpose_map(alg), iso_est) != "certified_yes"
    return ok, f"{certified} certified maps, worst sandwich margin {worst_margin:.2e}"


def acc_08_duality(n_maps: int = 50) -> tuple[bool, str]:
    alg = ALGEBRAS["M2"]()
    worst_mid, overlaps = 0.0, True
    for i in range(n_maps):
        s = mixed_unitary_channel(alg, np.random.default_rng(3000 + i))
        sd = predual(s)
        e1 = contraction_estimate(
            s, n_samples=14, refine_iters=8, rng=np.random.default_rng(500 + i), polish=True
        )
        e2 = contraction_estimate(
            sd, n_samples=14, refine_iters=8, rng=np.random.default_rng(600 + i), polish=True
        )
        overlaps &= e1.lower_bound <= e2.upper_bound + 1e-9 and e2.lower_bound <= e1.upper_bound + 1e-9
        mid1 = 0.5 * (e1.lower_bound + e1.upper_bound)
        mid2 = 0.5 * (e2.lower_bound + e2.upper_bound)
        worst_mid = max(worst_mid, abs(mid1 - mid2))
    ok = overlaps and worst_mid <= 1e-2
    return ok, f"intervals overlap: {overlaps}, max midpoint gap {worst_mid:.2e}"


def acc_09_submultiplicativity(n_pairs: int = 100) -> tuple[bool, str]:
    alg = ALGEBRAS["M2"]()
    rng = np.random.default_rng(109)
    maps = _random_channel_suite(alg, rng, 20)
    worst = -np.inf
    for i in range(n_pairs):
        a = maps[int(rng.integers(len(maps)))]
        b = maps[int(rng.integers(len(maps)))]
        ab = compose(a, b)
        e_ab = contraction_estimate(ab, n_samples=16, refine_iters=0, rng=np.random.default_rng(i))
        e_a = contraction_estimate(a, n_samples=8, refine_iters=0, rng=np.random.default_rng(i + 1))
        e_b = contraction_estimate(b, n_samples=8, refine_iters=0, rng=np.random.default_rng(i + 2))
        worst = max(worst, e_ab.lower_bound - e_a.upper_bound * e_b.upper_bound)
    return worst <= 1e-6, f"max lower(ab) - upper(a)upper(b) = {worst:.2e}"


def acc_10_kingman_rate() -> tuple[bool, str]:
    alg = ALGEBRAS["M2"]()
    ens = ChannelEnsemble.constant(depolarizing_channel(alg, 0.5))
    res = run_experiment(
        ErgodicDriver("constant"),
        ens,
        ProcessPlan(m_start=1, n_end=40),
        est_opts=EstimatorOptions(n_samples=8, refine_iters=0),
    )
    c = res.record.rate_C
    worst_cf = max(
        abs(e.lower - 2 * 0.5**e.length / (1 + 0.25**e.length))
        for e in res.record.c_trace
    )
    ok = abs(c - 0.5) <= 1e-3 and worst_cf <= 1e-9
    return ok, f"C = {c:.6f}, max closed-form gap {worst_cf:.1e}"


def acc_11_rate_constancy(n_streams: int = 20, n_steps: int = 60) -> tuple[bool, str]:
    alg = ALGEBRAS["M2"]()
    ens = ChannelEnsemble.mixture(
        [depolarizing_channel(alg, 0.5), depolarizing_channel(alg, 0.6)], [0.5, 0.5]
    )
    cs = []
    for s in range(n_streams):
        driver = ErgodicDriver("iid_shift", master_seed=derive_seed(111, f"s{s}"))
        res = run_experiment(
            driver,
            ens,
            ProcessPlan(m_start=1, n_end=n_steps),
            est_opts=EstimatorOptions(n_samples=10, refine_iters=4),
        )
        cs.append(res.record.rate_C)
    std = float(np.std(cs))
    return std <= 0.02, f"C mean {np.mean(cs):.4f}, stddev {std:.4f} over {n_streams} streams"


def acc_12_forward_collapse(n_steps: int = 50) -> tuple[bool, str]:
    alg = ALGEBRAS["M2"]()
    ens = ChannelEnsemble.random_kraus(alg, k=3, mix_eps=0.3)
    driver = ErgodicDriver("iid_shift", master_seed=112)
    res = run_experiment(
        driver,
        ens,
        ProcessPlan(m_start=1, n_end=n_steps, probes=3),
        est_opts=EstimatorOptions(n_samples=12, refine_iters=6),
        probe_seed=112,
    )
    spread_ok = all(
        not (row[3] == row[3]) or row[3] <= 2 * row[2] + 1e-9 for row in res.rows
    )
    pts = [
        (row[0], math.log(row[3]))
        for row in res.rows
        if row[3] == row[3] and row[3] > 1e-12
    ]
    lengths = np.array([p[0] for p in pts])
    logs = np.array([p[1] for p in pts])
    slope = float(np.polyfit(lengths, logs, 1)[0])
    slope_ok = abs(slope - math.log(res.record.rate_C)) <= 0.05
    rng = np.random.default_rng(1120)
    resid = equivariance_residual(
        res.record,
        random_state(alg, "full", rng),
        random_state(alg, "full", rng),
    )
    ok = spread_ok and slope_ok and resid <= 1e-6
    return ok, (
        f"spread bounded: {spread_ok}, |slope-logC| = "
        f"{abs(slope - math.log(res.record.rate_C)):.3f}, equivariance {resid:.1e}"
    )


def acc_13_dual_collapse(n_steps: int = 60) -> tuple[bool, str]:
    alg = ALGEBRAS["M2"]()
    target = State.from_element(alg.element([np.diag([1.4, 0.6])]))
    ens = ChannelEnsemble.random_kraus(alg, k=3, mix_eps=0.3, target=target)
    driver = ErgodicDriver("iid_shift", master_seed=113)
    a = alg.element([np.diag([1.0, -1.0])])
    res = run_experiment(
        driver,
        ens,
        ProcessPlan(m_start=1, n_end=n_steps, direction="phi_left"),
        observable=a,
        est_opts=EstimatorOptions(n_samples=12, refine_iters=6),
    )
    a_norm = norm(alg, a, "inf")
    bound_ok = all(
        not (row[4] == row[4]) or row[4] <= 8 * a_norm * row[2] + 1e-9
        for row in res.rows
    )
    final = res.rows[-1][4]
    ok = bound_ok and final <= 1e-6
    return ok, f"residual bound holds: {bound_ok}, final residual {final:.2e}"


def acc_14_collapse_prefactor(n_streams: int = 20, n_steps: int = 45) -> tuple[bool, str]:
    alg = ALGEBRAS["M2"]()
    ens = ChannelEnsemble.random_kraus(alg, k=3, mix_eps=0.3)
    a = alg.element([np.diag([1.0, -1.0])])
    stabilized = 0
    opts = EstimatorOptions(n_samples=8, refine_iters=2)
    for s in range(n_streams):
        driver = ErgodicDriver("iid_shift", master_seed=derive_seed(114, f"s{s}"))
        res = run_experiment(
            driver, ens, ProcessPlan(m_start=1, n_end=n_steps), est_opts=opts
        )
        report = rank_one_collapse_check(res.record, a)
        stabilized += 1 if report.stabilized else 0
    return stabilized == n_streams, f"{stabilized}/{n_streams} streams stabilized"


def acc_15_stopping_time(n_streams: int = 1000) -> tuple[bool, str]:
    alg = ALGEBRAS["M2"]()
    ens = ChannelEnsemble.mixture(
        [transpose_map(alg), depolarizing_channel(alg, 0.5)], [0.5, 0.5]
    )
    from .process import extend_process, start_process

    opts = EstimatorOptions(n_samples=6, refine_iters=0)
    nus = []
    for s in range(n_streams):
        driver = ErgodicDriver("iid_shift", master_seed=derive_seed(115, f"s{s}"))
        rec = start_process(driver, ens, "gamma_right", 0, opts)
        while rec.nu_certified is None and rec.length < 40:
            extend_process(rec)
        nus.append(stopping_time_nu(rec))
    nus = np.array(nus)
    max_bin = 6
    observed = [int(np.sum(nus == k)) for k in range(max_bin)]
    observed.append(int(np.sum(nus >= max_bin)))
    probs = [0.5 ** (k + 1) for k in range(max_bin)]
    probs.append(1.0 - sum(probs))
    expected = [p * n_streams for p in probs]
    chi2, p_value = stats.chisquare(observed, expected)
    return p_value > 0.01, f"chi2 = {chi2:.2f}, p = {p_value:.3f}, bins {observed}"


def acc_16_clustering() -> tuple[bool, str]:
    site = ALGEBRAS["M2"]()
    bond = ALGEBRAS["M2"]()
    sz = LocalObservable.from_sites(site, 0, [site.element([np.diag([1.0, -1.0])])])
    sx = LocalObservable.from_sites(
        site, 0, [site.element([np.array([[0.0, 1.0], [1.0, 0.0]])])]
    )
    gaps = list(range(1, 13))
    prod_rep = clustering_experiment(
        product_generator(site, bond),
        ErgodicDriver("constant"),
        sz,
        sx,
        gaps=gaps,
        window=20,
    )
    prod_ok = max((r.corr for r in prod_rep.rows), default=0.0) < 1e-12
    gen = random_unital_generator(site, bond, kraus_rank=2)
    rep = clustering_experiment(
        gen,
        ErgodicDriver("iid_shift", master_seed=777),
        sz,
        sx,
        gaps=gaps,
        window=25,
    )
    # the per-gap rate of the certified bound between the first and last gaps
    first, last = rep.rows[0], rep.rows[-1]
    bound_rate = (last.bound_rhs / first.bound_rhs) ** (1.0 / (last.gap - first.gap))
    fit_ok = rep.degenerate or rep.kappa_fit <= bound_rate + 0.05
    ok = prod_ok and fit_ok and rep.all_pass
    return ok, (
        f"product max corr {max((r.corr for r in prod_rep.rows), default=0.0):.1e}; "
        f"kappa_fit {rep.kappa_fit:.3f} vs bound rate {bound_rate:.3f}, bounds pass: {rep.all_pass}"
    )


def acc_17_translation_covariance() -> tuple[bool, str]:
    site = ALGEBRAS["M2"]()
    bond = ALGEBRAS["M2"]()
    gen = random_unital_generator(site, bond, kraus_rank=3)
    driver = ErgodicDriver("iid_shift", master_seed=117)
    obs = LocalObservable.from_sites(
        site, 0, [site.element([np.array([[1.0, 0.4j], [-0.4j, 0.2]])])]
    )
    worst_ratio = 0.0
    details = []
    for k in (1, 2, 3):
        dev, budget = translation_covariance_check(gen, driver, obs, k, window=30)
        details.append(f"k={k}: {dev:.1e}<={budget:.1e}")
        worst_ratio = max(worst_ratio, dev - budget)
    return worst_ratio <= 0.0, "; ".join(details)


def acc_18_determinism() -> tuple[bool, str]:
    from .expcli import cmd_fcs, cmd_process

    process_config = {
        "master_seed": 2024,
        "algebra": {"dims": [2], "weights": [1.0]},
        "driver": {"kind": "iid_shift"},
        "ensemble": {"recipe": "random_kraus", "k": 2, "mix_eps": 0.3},
        "plan": {"m_start": 1, "n_end": 12, "streams": 2},
        "estimator": {"n_samples": 8, "refine_iters": 2},
    }
    fcs_config = {
        "master_seed": 2025,
        "algebra": {"dims": [2], "weights": [1.0]},
        "bond": {"dims": [2], "weights": [1.0]},
        "driver": {"kind": "iid_shift"},
        "generator": {"recipe": "random_unital_cp", "kraus_rank": 2},
        "plan": {"gaps": [1, 2, 3], "window": 10, "birkhoff_n_max": 2},
    }
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, runner, config in (
            ("process", cmd_process, process_config),
            ("fcs", cmd_fcs, fcs_config),
        ):
            dir_a = os.path.join(tmp, label + "_a")
            dir_b = os.path.join(tmp, label + "_b")
            runner(dict(config), dir_a)
            runner(dict(config), dir_b)
            names_a = sorted(os.listdir(dir_a))
            names_b = sorted(os.listdir(dir_b))
            if names_a != names_b:
                problems.append(f"{label}: differing file sets")
                continue
            for name in names_a:
                if name == "manifest.json":
                    continue  # carries wall-clock timestamps by contract
                with open(os.path.join(dir_a, name), "rb") as fh:
                    blob_a = fh.read()
                with open(os.path.join(dir_b, name), "rb") as fh:
                    blob_b = fh.read()
                if blob_a != blob_b:
                    problems.append(f"{label}:{name} differs")
    return not problems, "; ".join(problems) if problems else "byte-identical outputs"


ACCEPTANCE_CHECKS: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("01 order-coefficient oracle equivalence", acc_01_m_oracle_equivalence),
    ("02 distance formula equivalence", acc_02_d_formula_equivalence),
    ("03 diagonal family anchor", acc_03_diagonal_family_anchor),
    ("04 metric axioms and norm domination", acc_04_metric_axioms),
    ("05 component geometry", acc_05_component_geometry),
    ("06 contraction anchors", acc_06_contraction_anchors),
    ("07 sandwich certificate round trip", acc_07_sandwich_round_trip),
    ("08 contraction duality", acc_08_duality),
    ("09 submultiplicativity", acc_09_submultiplicativity),
    ("10 collapse rate anchor", acc_10_kingman_rate),
    ("11 rate constancy across streams", acc_11_rate_constancy),
    ("12 forward collapse diagnostics", acc_12_forward_collapse),
    ("13 dual collapse diagnostics", acc_13_dual_collapse),
    ("14 collapse prefactor stabilization", acc_14_collapse_prefactor),
    ("15 stopping time distribution", acc_15_stopping_time),
    ("16 chain clustering", acc_16_clustering),
    ("17 translation covariance", acc_17_translation_covariance),
    ("18 run determinism", acc_18_determinism),
]


# ---------------------------------------------------------------------------
# quick battery
# ---------------------------------------------------------------------------


def _quick_metric() -> tuple[bool, str]:
    return acc_01_m_oracle_equivalence(pairs_per_algebra=25)


def _quick_axioms() -> tuple[bool, str]:
    return acc_04_metric_axioms(n_triples=400)


def _quick_components() -> tuple[bool, str]:
    return acc_05_component_geometry(n_instances=60)


def _quick_collapse() -> tuple[bool, str]:
    return acc_10_kingman_rate()


def _quick_serialization() -> tuple[bool, str]:
    from .algebra import element_from_payload, element_to_payload

    alg = ALGEBRAS["M2+M2"]()
    rng = np.random.default_rng(5)
    x = _random_psd(alg, rng)
    y = element_from_payload(element_to_payload(x))
    exact = all(
        np.array_equal(bx, by) for bx, by in zip(x.blocks, y.blocks)
    )
    return exact, "matrix file payload round-trips exactly"


def _quick_predual_pairing() -> tuple[bool, str]:
    alg = ALGEBRAS["M2+M2"]()
    rng = np.random.default_rng(6)
    s = mixed_unitary_channel(alg, rng)
    sd = predual(s)
    worst = 0.0
    for _ in range(20):
        x = _random_psd(alg, rng)
        a = _random_psd(alg, rng)
        lhs = trace(alg, sd.apply(x) @ a)
        rhs = trace(alg, x @ s.apply(a))
        worst = max(worst, abs(lhs - rhs))
    invol = float(np.max(np.abs(predual(sd).matrix - s.matrix)))
    ok = worst <= 1e-10 and invol <= 1e-12
    return ok, f"pairing defect {worst:.1e}, involution defect {invol:.1e}"


def _quick_fcs() -> tuple[bool, str]:
    site = ALGEBRAS["M2"]()
    bond = ALGEBRAS["M2"]()
    gen = product_generator(site, bond)
    obs = LocalObservable.from_sites(site, 0, [site.element([np.diag([2.0, 0.0])])])
    est = psi_value(gen, ErgodicDriver("constant"), obs, window=8)
    return abs(est.value - 1.0) <= 1e-10, f"product-state value {est.value:.12f}"


QUICK_CHECKS: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("quick order-coefficient oracles", _quick_metric),
    ("quick metric axioms", _quick_axioms),
    ("quick component geometry", _quick_components),
    ("quick diagonal anchor", acc_03_diagonal_family_anchor),
    ("quick contraction anchors", acc_06_contraction_anchors),
    ("quick collapse rate", _quick_collapse),
    ("quick serialization round-trip", _quick_serialization),
    ("quick predual pairing", _quick_predual_pairing),
    ("quick chain product state", _quick_fcs),
]


def quick_checks():
    return QUICK_CHECKS


def full_checks():
    return QUICK_CHECKS + ACCEPTANCE_CHECKS

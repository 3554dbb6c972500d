"""Output checks.  Each returns a list of failure messages, empty on success.

The checks read only plain numbers taken from the program's outputs, so the
tests can feed them perturbed copies and see them fail.
"""

from __future__ import annotations

from reference import depolarizing_diameter, mixture_rate

# Mixture of the process_mixture workload: depolarizing(0.5) and (0.6), i.e.
# retentions 0.5 and 0.4, drawn with probability 1/2 each.
RETENTIONS = (0.5, 0.4)
PROBS = (0.5, 0.5)
# Below this the distance computation sits at the double-precision floor and
# the reported lower bound is roundoff, not the closed form.
DIAMETER_FLOOR = 1e-12
# The fitted rate is a positively weighted mean of one-step log ratios, each
# log(0.5) or log(0.4) up to the 1+q^2 factor, so it lies in [0.4, 0.5]; the
# tolerance around sqrt(0.2) covers that interval with room for the fit.
RATE_TOL = 0.06


def _near(value: float, target: float, rel: float, abs_: float) -> bool:
    return abs(value - target) <= rel * abs(target) + abs_


def check_process_stream(rows, rate_c) -> list:
    """One stream of ``cmd_process``: rows of (length, c_lower, c_upper, spread_l1).

    Each composed map is depolarizing with retention 0.5^a 0.4^(n-a), where a
    counts the depolarizing(0.5) factors among the first n, and a grows by 0
    or 1 per step.
    """
    errors = []
    prev = None  # (length, a)
    for n, lower, upper, spread in rows:
        if not spread <= 2.0 * upper + 1e-15:
            errors.append(f"length {n}: spread_l1 {spread!r} > 2 c_upper {upper!r}")
        if lower <= DIAMETER_FLOOR:
            prev = None
            continue
        matches = [
            a
            for a in range(n + 1)
            if _near(lower, depolarizing_diameter(0.5**a * 0.4 ** (n - a)), 1e-8, 1e-15)
        ]
        if not matches:
            errors.append(f"length {n}: c_lower {lower!r} is no closed-form diameter")
            prev = None
            continue
        a = matches[0]
        exact = depolarizing_diameter(0.5**a * 0.4 ** (n - a))
        if upper < exact * (1.0 - 1e-9) - 1e-15:
            errors.append(f"length {n}: c_upper {upper!r} < diameter {exact!r}")
        if prev is not None and prev[0] == n - 1 and a - prev[1] not in (0, 1):
            errors.append(f"length {n}: factor count jumped from {prev[1]} to {a}")
        prev = (n, a)
    target = mixture_rate(RETENTIONS, PROBS)
    if rate_c is None or not abs(rate_c - target) <= RATE_TOL:
        errors.append(f"fitted C {rate_c!r} is not within {RATE_TOL} of {target:.6f}")
    return errors


def check_contraction(kind: str, report: dict, ref: dict) -> list:
    """One ``cmd_contraction`` report against the references of its map.

    ``ref`` holds ``sampled`` (largest sampled image distance, any kind but
    replacement), ``cone`` (strongly summable) and ``exact`` (depolarizing).
    """
    lower, upper = report["lower"], report["upper"]
    errors = []
    if not (-1e-12 <= lower <= upper + 1e-12 and upper <= 1.0 + 1e-12):
        errors.append(f"{kind}: bracket [{lower!r}, {upper!r}] is not inside [0, 1]")
    if "sampled" in ref and upper < ref["sampled"] * (1.0 - 1e-9) - 1e-12:
        errors.append(f"{kind}: upper {upper!r} < sampled image distance {ref['sampled']!r}")
    if "cone" in ref and lower > ref["cone"] * (1.0 + 1e-9) + 1e-12:
        errors.append(f"{kind}: lower {lower!r} > cone diameter {ref['cone']!r}")
    if "exact" in ref and not _near(lower, ref["exact"], 1e-9, 1e-12):
        errors.append(f"{kind}: lower {lower!r} != closed form {ref['exact']!r}")
    if kind == "replacement" and not (abs(lower) <= 1e-12 and abs(upper) <= 1e-12):
        errors.append(f"replacement: bracket [{lower!r}, {upper!r}] is not [0, 0]")
    return errors


def check_chain(values: dict, norms: dict, decay_rows, covariance) -> list:
    """Chain-state values, clustering rows and covariance deviations.

    ``values`` holds psi of the 6-site observable (``a6``), of its six
    single-site factors placed side by side (``a6_parts``), of the 3-site
    observable (``a3``) and of the identity (``one``); ``norms`` holds the
    reference operator norms of ``a6`` and ``a3``.  ``decay_rows`` are
    (gap, corr, bound_rhs) and ``covariance`` (shift, deviation, budget).
    """
    errors = []
    if not _near(values["a6_parts"], values["a6"], 1e-12, 1e-14):
        errors.append(
            f"psi of the 6-site product {values['a6']!r} != psi of its factors"
            f" {values['a6_parts']!r}"
        )
    if not abs(values["one"] - 1.0) <= 1e-12:
        errors.append(f"psi(1) = {values['one']!r}")
    for key, bound in norms.items():
        if not abs(values[key]) <= bound * (1.0 + 1e-12):
            errors.append(f"|psi({key})| = {abs(values[key])!r} > ||{key}|| = {bound!r}")
    for gap, corr, rhs in decay_rows:
        if not corr <= rhs * (1.0 + 1e-9) + 1e-12:
            errors.append(f"gap {gap}: |corr| {corr!r} > bound_rhs {rhs!r}")
    for shift, dev, budget in covariance:
        if not dev <= budget + 1e-12:
            errors.append(f"shift {shift}: covariance deviation {dev!r} > budget {budget!r}")
    return errors

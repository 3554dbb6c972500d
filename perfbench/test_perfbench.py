"""Tests of the benchmark's own code: references, output checks, tracer.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import reference  # noqa: E402

# -- references against hand-derived diagonal cases -----------------------------


def test_order_coefficient_diagonal():
    x, y = [np.diag([3.0, 1.0])], [np.diag([1.0, 2.0])]
    assert reference.order_coefficient(x, y) == pytest.approx(0.5)
    assert reference.order_coefficient(y, x) == pytest.approx(1.0 / 3.0)


def test_order_coefficient_takes_the_worst_block():
    x = [np.diag([2.0, 4.0]), np.diag([1.0])]
    y = [np.diag([1.0, 1.0]), np.diag([4.0])]
    assert reference.order_coefficient(x, y) == pytest.approx(0.25)


def test_order_coefficient_is_basis_free():
    u = np.linalg.qr(np.array([[1.0, 2.0], [3.0, 4.0]]) + 1j)[0]
    x, y = np.diag([3.0, 1.0]), np.diag([1.0, 2.0])
    rot = [u @ x @ u.conj().T], [u @ y @ u.conj().T]
    assert reference.order_coefficient(*rot) == pytest.approx(0.5)


def test_distance_diagonal():
    # m(x,y) = m(y,x) = 1/3, so d = (1 - 1/9) / (1 + 1/9) = 0.8
    x, y = [np.diag([3.0, 1.0])], [np.diag([1.0, 3.0])]
    assert reference.distance(x, y) == pytest.approx(0.8)
    assert reference.distance(x, x) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
def test_depolarizing_diameter_is_the_distance_of_orthogonal_images(q, n):
    beta = (1.0 - q) / n
    img0, img1 = np.full(n, beta), np.full(n, beta)
    img0[0] += q
    img1[1] += q
    d = reference.distance([np.diag(img0)], [np.diag(img1)])
    assert reference.depolarizing_diameter(q, n) == pytest.approx(d, rel=1e-12)


def test_depolarizing_diameter_on_m2():
    for q in (0.5, 0.2, 1e-3):
        assert reference.depolarizing_diameter(q) == pytest.approx(2 * q / (1 + q * q))


def test_mixture_rate():
    assert reference.mixture_rate((0.5, 0.4), (0.5, 0.5)) == pytest.approx(math.sqrt(0.2))


def test_kraus_payload_of_the_depolarizing_anchor():
    from workloads import depolarizing_payload

    q, n = 0.3, 3
    payload = depolarizing_payload(q, n)
    rng = np.random.default_rng(0)
    x = reference.random_pure([n], rng)
    expected = q * x[0] + (1 - q) * np.trace(x[0]) / n * np.eye(n)
    assert np.allclose(reference.apply_map(payload, x)[0], expected)
    assert reference.sampled_image_diameter(payload, 16, rng) <= (
        reference.depolarizing_diameter(q, n) + 1e-12
    )


def test_summable_image_lies_in_the_cone():
    from workloads import _pairs

    rng = np.random.default_rng(1)
    m1, m2 = np.diag([1.0, 2.0]), np.diag([2.0, 1.0])
    payload = {
        "kind": "strongly_summable",
        "algebra": {"dims": [2], "weights": [1.0]},
        "pairs": [{"a": [_pairs(np.eye(2))], "m": [_pairs(m)]} for m in (m1, m2)],
    }
    assert reference.cone_diameter(payload) == pytest.approx(reference.distance([m1], [m2]))
    assert reference.sampled_image_diameter(payload, 32, rng) <= reference.cone_diameter(payload)


# -- process_mixture checks ----------------------------------------------------


def _stream(counts):
    """Rows whose length-n map has counts[n-1] depolarizing(0.5) factors."""
    rows = []
    for n, a in enumerate(counts, start=1):
        v = reference.depolarizing_diameter(0.5**a * 0.4 ** (n - a))
        rows.append((n, v, 1.01 * v, 1.2 * v))
    return rows


def _good_stream(n_end=40, seed=0):
    steps = np.random.default_rng(seed).integers(2, size=n_end)
    return _stream(np.cumsum(steps).tolist())


def test_process_check_accepts_closed_forms():
    assert checks.check_process_stream(_good_stream(), math.sqrt(0.2)) == []


def _perturbed(field, factor, at=5):
    rows = [list(r) for r in _good_stream()]
    rows[at][field] *= factor
    return [tuple(r) for r in rows]


def test_process_check_rejects_a_lower_bound_off_the_closed_form():
    errors = checks.check_process_stream(_perturbed(1, 1.1), math.sqrt(0.2))
    assert any("no closed-form diameter" in e for e in errors)


def test_process_check_rejects_an_upper_bound_below_the_diameter():
    errors = checks.check_process_stream(_perturbed(2, 0.5), math.sqrt(0.2))
    assert any("c_upper" in e and "< diameter" in e for e in errors)


def test_process_check_rejects_a_wide_spread():
    errors = checks.check_process_stream(_perturbed(3, 2.0), math.sqrt(0.2))
    assert any("spread_l1" in e for e in errors)
    rows = _good_stream()
    rows[3] = rows[3][:3] + (float("nan"),)
    assert checks.check_process_stream(rows, math.sqrt(0.2))


def test_process_check_rejects_a_factor_count_jump():
    counts = [min(n, 5) for n in range(1, 31)]
    counts[10] = counts[9] + 2
    errors = checks.check_process_stream(_stream(counts), math.sqrt(0.2))
    assert any("jumped" in e for e in errors)


def test_process_check_rejects_a_rate_off_the_ergodic_value():
    assert checks.check_process_stream(_good_stream(), 0.6)
    assert checks.check_process_stream(_good_stream(), None)


# -- contraction_suite checks --------------------------------------------------


def test_contraction_check_accepts_sound_reports():
    assert checks.check_contraction("kraus", {"lower": 0.9, "upper": 0.95}, {"sampled": 0.85}) == []
    ref = {"sampled": 0.5, "cone": 0.7}
    assert checks.check_contraction("summable", {"lower": 0.6, "upper": 0.8}, ref) == []
    ref = {"sampled": 0.6, "exact": 0.678}
    assert checks.check_contraction("depolarizing", {"lower": 0.678, "upper": 0.7}, ref) == []
    assert checks.check_contraction("replacement", {"lower": 1e-15, "upper": 4e-15}, {}) == []


def test_contraction_check_rejects_an_upper_below_a_sampled_distance():
    assert checks.check_contraction("kraus", {"lower": 0.8, "upper": 0.84}, {"sampled": 0.85})


def test_contraction_check_rejects_a_lower_outside_the_cone():
    ref = {"sampled": 0.5, "cone": 0.7}
    assert checks.check_contraction("summable", {"lower": 0.75, "upper": 0.8}, ref)


def test_contraction_check_rejects_a_wrong_depolarizing_anchor():
    ref = {"sampled": 0.6, "exact": 0.678}
    assert checks.check_contraction("depolarizing", {"lower": 0.69, "upper": 0.7}, ref)


def test_contraction_check_rejects_a_nonzero_replacement():
    assert checks.check_contraction("replacement", {"lower": 0.0, "upper": 1e-6}, {})


def test_contraction_check_rejects_a_bracket_outside_the_unit_interval():
    assert checks.check_contraction("kraus", {"lower": 0.9, "upper": 0.8}, {})


# -- chain_clustering checks ---------------------------------------------------


def _chain_outputs():
    values = {"a6": 0.12 + 0.01j, "a6_parts": 0.12 + 0.01j, "a3": -0.3, "one": 1.0 + 0j}
    norms = {"a6": 0.5, "a3": 0.9}
    decay = [(g, 1e-4 / g, 8 * 0.5**g) for g in range(1, 9)]
    covariance = [(k, 1e-9, 1e-4) for k in (1, 2, 3)]
    return values, norms, decay, covariance


def test_chain_check_accepts_consistent_outputs():
    assert checks.check_chain(*_chain_outputs()) == []


def test_chain_check_rejects_a_product_split_mismatch():
    values, norms, decay, covariance = _chain_outputs()
    values["a6_parts"] += 1e-9
    assert checks.check_chain(values, norms, decay, covariance)


def test_chain_check_rejects_psi_of_one_away_from_one():
    values, norms, decay, covariance = _chain_outputs()
    values["one"] = 1.0 + 1e-9
    assert checks.check_chain(values, norms, decay, covariance)


def test_chain_check_rejects_a_value_above_the_norm():
    values, norms, decay, covariance = _chain_outputs()
    values["a3"] = 0.95
    assert checks.check_chain(values, norms, decay, covariance)


def test_chain_check_rejects_a_correlation_above_its_bound():
    values, norms, decay, covariance = _chain_outputs()
    decay[-1] = (8, 1.0, 8 * 0.5**8)
    assert checks.check_chain(values, norms, decay, covariance)


def test_chain_check_rejects_a_covariance_deviation_above_budget():
    values, norms, decay, covariance = _chain_outputs()
    covariance[1] = (2, 2e-4, 1e-4)
    assert checks.check_chain(values, norms, decay, covariance)


# -- tracer --------------------------------------------------------------------


def test_tracer_spans_phases_and_restore():
    from hennion_lab import make_algebra, qmaps

    from tracing import OpClock, Tracer

    original = qmaps.contraction_estimate
    tracer = Tracer(OpClock())
    tracer.install()
    try:
        s = qmaps.depolarizing_channel(make_algebra([2], [1.0]), 0.5)
        est = qmaps.contraction_estimate(s, n_samples=4, refine_iters=2, polish=True)
    finally:
        tracer.uninstall()
    assert qmaps.contraction_estimate is original
    layer = tracer.per_layer()
    assert layer["qmaps.contraction_estimate.calls"] == 1
    assert layer["hennion.hennion_distance.calls"] > 0
    phases = sum(
        layer[f"contraction.{p}_s"] for p in ("lower_search", "fixed_point", "certificate")
    )
    assert phases == pytest.approx(layer["qmaps.contraction_estimate.total_s"], rel=1e-9)
    assert 0 < layer["contraction.polish_s"] < phases
    assert layer["contraction.fixed_point_iters"] == est.fixed_point_iterations
    assert layer["contraction.lower_search_s"] > 0 and layer["contraction.certificate_s"] > 0
    # every span's time is its own or a child's; scipy's self time inside
    # the polish spans is the one part no reported self time covers
    total = layer["qmaps.contraction_estimate.total_s"]
    selfs = sum(v for k, v in layer.items() if k.endswith(".self_s"))
    assert selfs <= total * (1 + 1e-9)
    assert selfs + layer["contraction.polish_s"] >= total * (1 - 1e-9)


def test_benchmark_json_names_every_metric():
    from tracing import OpClock, Tracer, per_layer_names

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == per_layer_names()
    reported = set(Tracer(OpClock()).per_layer()) | {"import_s", "trace.run_s", "trace.overhead_s"}
    assert reported == set(per_layer_names())
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "run_s", "op_ms_p50", "peak_rss_mb"}

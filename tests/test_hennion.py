import numpy as np
import pytest

from hennion_lab import (
    State,
    classify_component,
    hennion_distance,
    hennion_distance_many,
    line_decomposition,
    m_quantity,
    m_quantity_bisection,
    m_quantity_inf_sampling,
    norm,
    random_state,
)
from hennion_lab.errors import (
    DegeneratePairError,
    RejectedInputError,
)


def diag_state(alg, entries):
    x = alg.element([np.diag(np.asarray(entries, dtype=float))])
    from hennion_lab import trace

    return State.from_element(x * (1.0 / trace(alg, x).real))


def x_eta(alg, eta):
    return State.from_element(alg.element([np.diag([1.0, eta])]) * (2.0 / (1.0 + eta)))


class TestOrderCoefficient:
    def test_self_is_one(self, qubit, rng):
        x = random_state(qubit, "full", rng)
        assert m_quantity(x, x).value == pytest.approx(1.0, abs=1e-12)

    def test_projection_vs_identity(self, qubit):
        # no positive multiple of the identity sits below a rank-one state
        p = diag_state(qubit, [1.0, 0.0])
        one = State.from_element(qubit.identity())
        assert m_quantity(p, one).value == 0.0
        assert m_quantity(one, p).value == pytest.approx(0.5, abs=1e-12)

    def test_commuting_diagonal_family(self, qubit):
        val = m_quantity(x_eta(qubit, 0.5), x_eta(qubit, 0.25)).value
        assert val == pytest.approx((1 + 0.25) / (1 + 0.5), abs=1e-13)

    def test_scaling_property(self, two_blocks, rng):
        x = random_state(two_blocks, "full", rng).element
        y = random_state(two_blocks, "full", rng).element
        base = m_quantity(x, y).value
        for a, b in [(2.0, 3.0), (0.1, 0.7), (5.0, 0.2)]:
            assert m_quantity(a * x, b * y).value == pytest.approx(
                (a / b) * base, rel=1e-10
            )

    def test_chain_inequality(self, qutrit, rng):
        for _ in range(100):
            x = random_state(qutrit, "full", rng).element
            y = random_state(qutrit, "full", rng).element
            z = random_state(qutrit, "full", rng).element
            assert (
                m_quantity(x, z).value * m_quantity(z, y).value
                <= m_quantity(x, y).value + 1e-9
            )

    def test_product_one_iff_proportional(self, qubit, rng):
        x = random_state(qubit, "full", rng).element
        prod = m_quantity(x, 3.0 * x).value * m_quantity(3.0 * x, x).value
        assert prod == pytest.approx(1.0, abs=1e-12)
        y = random_state(qubit, "full", rng).element
        prod_xy = m_quantity(x, y).value * m_quantity(y, x).value
        assert prod_xy < 1.0 - 1e-6 or norm(qubit, x - y, "one") <= 1e-8

    def test_monotonicity(self, qubit, rng):
        for _ in range(50):
            x = random_state(qubit, "full", rng).element
            z = random_state(qubit, "full", rng).element
            y = x + random_state(qubit, "full", rng).element  # y >= x
            assert m_quantity(x, z).value <= m_quantity(y, z).value + 1e-10
            assert m_quantity(z, x).value >= m_quantity(z, y).value - 1e-10

    def test_upper_bound_by_traces(self, two_blocks, rng):
        from hennion_lab import trace

        for _ in range(50):
            x = random_state(two_blocks, "full", rng).element * float(rng.uniform(0.5, 2))
            y = random_state(two_blocks, "full", rng).element * float(rng.uniform(0.5, 2))
            bound = trace(two_blocks, x).real / trace(two_blocks, y).real
            val = m_quantity(x, y).value
            assert 0.0 <= val <= bound + 1e-10

    def test_certificate_verifiable(self, qutrit, rng):
        from hennion_lab import is_positive

        x = random_state(qutrit, "full", rng).element
        y = random_state(qutrit, "full", rng).element
        res = m_quantity(x, y)
        assert is_positive(qutrit, x - res.certificate * y)

    def test_zero_input_rejected(self, qubit):
        with pytest.raises(RejectedInputError):
            m_quantity(qubit.zero(), qubit.identity())


class TestBisectionOracle:
    def test_agreement_random_pairs(self, qutrit, rng):
        # cross-oracle agreement on 200 pairs, mixed ranks
        worst = 0.0
        for i in range(200):
            kinds = ("full", "boundary", "ranked", "pure")
            x = random_state(qutrit, kinds[i % 4], rng, rank=2).element
            y = random_state(qutrit, kinds[(i + 1) % 4], rng, rank=2).element
            a = m_quantity(x, y).value
            b = m_quantity_bisection(x, y, tol=1e-10).value
            worst = max(worst, abs(a - b))
        assert worst <= 1e-8

    def test_self(self, qubit, rng):
        x = random_state(qubit, "full", rng)
        assert m_quantity_bisection(x, x).value == pytest.approx(1.0, abs=1e-9)

    def test_support_mismatch_zero(self, qubit):
        p = diag_state(qubit, [1.0, 0.0])
        one = State.from_element(qubit.identity())
        assert m_quantity_bisection(p, one).value == 0.0


class TestSampledInfimum:
    def test_self_ratio_one(self, qubit, rng):
        x = random_state(qubit, "full", rng)
        est = m_quantity_inf_sampling(x, x, 32, rng)
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_always_upper_bound(self, two_blocks, rng):
        for _ in range(50):
            x = random_state(two_blocks, "full", rng).element
            y = random_state(two_blocks, "boundary", rng).element
            exact = m_quantity(x, y).value
            est = m_quantity_inf_sampling(x, y, 64, rng).value
            assert est >= exact - 1e-9

    def test_monotone_in_samples(self, qubit):
        x = random_state(qubit, "full", np.random.default_rng(5))
        y = random_state(qubit, "full", np.random.default_rng(6))
        small = m_quantity_inf_sampling(x, y, 16, np.random.default_rng(7)).value
        large = m_quantity_inf_sampling(x, y, 64, np.random.default_rng(7)).value
        assert large <= small + 1e-15

    def test_gap_closes_with_samples(self, qutrit):
        rng = np.random.default_rng(8)
        x = random_state(qutrit, "full", rng)
        y = random_state(qutrit, "full", rng)
        exact = m_quantity(x, y).value
        est = m_quantity_inf_sampling(x, y, 100_000, np.random.default_rng(9)).value
        assert est - exact <= 1e-2


class TestDistance:
    def test_identity_and_symmetry(self, qubit, rng):
        x = random_state(qubit, "full", rng)
        y = random_state(qubit, "full", rng)
        assert hennion_distance(x, x) <= 1e-12
        assert hennion_distance(x, y) == pytest.approx(hennion_distance(y, x), abs=1e-12)

    def test_projection_at_distance_one(self, qubit):
        p = diag_state(qubit, [1.0, 0.0])
        one = State.from_element(qubit.identity())
        assert hennion_distance(p, one) == 1.0

    def test_diagonal_family_value(self, qubit):
        assert hennion_distance(x_eta(qubit, 0.5), x_eta(qubit, 0.25)) == pytest.approx(
            1.0 / 3.0, abs=1e-13
        )

    def test_norm_domination(self, two_blocks, rng):
        for _ in range(300):
            x = random_state(two_blocks, "full", rng)
            y = random_state(two_blocks, "full", rng)
            gap = norm(two_blocks, x.element - y.element, "one")
            assert 0.5 * gap <= hennion_distance(x, y) + 1e-10

    def test_lower_semicontinuity_proxy(self, qubit, rng):
        x = random_state(qubit, "full", rng)
        y = random_state(qubit, "full", rng)
        z = random_state(qubit, "full", rng)
        base = m_quantity(x, y).value
        for n in (10, 100, 1000):
            t = 1.0 / n
            xn = State.from_element((1 - t) * x.element + t * z.element)
            yn = State.from_element((1 - t) * y.element + t * z.element)
            if n == 1000:
                assert m_quantity(xn, yn).value <= base + 1e-2

    def test_operator_norm_convergence_gives_d_convergence(self, qubit, rng):
        # on invertible states the metric topology matches the norm topology
        x = random_state(qubit, "full", rng)
        perturb = random_state(qubit, "full", rng).element - x.element
        for eps in (1e-2, 1e-4, 1e-6):
            xn = State.from_element(x.element + eps * perturb)
            assert hennion_distance(xn, x) <= 5 * eps / max(x.min_eigenvalue, 1e-3)

    def test_cauchy_failure_towards_boundary(self, qubit):
        # the family X_eta is norm-convergent as eta -> 0 but never
        # metric-Cauchy: at ratio three the distance is at least one half
        etas = [3.0 ** (-k) for k in range(1, 8)]
        for eta_big, eta_small in zip(etas, etas[1:]):
            d = hennion_distance(x_eta(qubit, eta_big), x_eta(qubit, eta_small))
            assert d >= 0.5 - 1e-12
        limit = State.from_element(qubit.element([np.diag([2.0, 0.0])]))
        assert hennion_distance(x_eta(qubit, 1e-4), limit) == 1.0


class TestLineDecomposition:
    def test_hand_computed_pair(self, qubit):
        x = diag_state(qubit, [1.5, 0.5])
        y = diag_state(qubit, [0.5, 1.5])
        ld = line_decomposition(x, y)
        assert ld.t_plus == pytest.approx(1.5, abs=1e-9)
        assert ld.t_minus == pytest.approx(-0.5, abs=1e-9)
        assert ld.distance == pytest.approx(0.8, abs=1e-9)
        assert ld.r == pytest.approx(0.25, abs=1e-9)
        assert ld.s == pytest.approx(0.75, abs=1e-9)

    def test_endpoint_reconstruction(self, qubit, rng):
        x = random_state(qubit, "full", rng)
        y = random_state(qubit, "full", rng)
        ld = line_decomposition(x, y)
        rx = ld.r * ld.A_minus.element + (1 - ld.r) * ld.A_plus.element
        ry = ld.s * ld.A_minus.element + (1 - ld.s) * ld.A_plus.element
        assert norm(qubit, rx - x.element, "one") <= 1e-8
        assert norm(qubit, ry - y.element, "one") <= 1e-8

    def test_parameter_bounds(self, two_blocks, rng):
        for _ in range(20):
            x = random_state(two_blocks, "full", rng)
            y = random_state(two_blocks, "full", rng)
            gap = norm(two_blocks, x.element - y.element, "one")
            ld = line_decomposition(x, y)
            assert 1.0 <= ld.t_plus <= 2.0 / gap + 1e-8
            assert -2.0 / gap - 1e-8 <= ld.t_minus <= 0.0

    def test_agreement_with_m_formula(self, two_blocks, rng):
        worst = 0.0
        for _ in range(100):
            x = random_state(two_blocks, "full", rng)
            y = random_state(two_blocks, "full", rng)
            worst = max(
                worst,
                abs(hennion_distance(x, y) - line_decomposition(x, y).distance),
            )
        assert worst <= 1e-6

    def test_interior_pair_brackets(self, qubit, rng):
        x = random_state(qubit, "full", rng)
        z = random_state(qubit, "full", rng)
        y = State.from_element(0.9 * x.element + 0.1 * z.element)
        ld = line_decomposition(x, y)
        assert ld.t_plus >= 1.0
        assert ld.t_minus <= 0.0

    def test_degenerate_pair_rejected(self, qubit, rng):
        x = random_state(qubit, "full", rng)
        with pytest.raises(DegeneratePairError):
            line_decomposition(x, x)


class TestComponents:
    def test_invertible_pair(self, qubit, rng):
        x = random_state(qubit, "full", rng)
        y = random_state(qubit, "full", rng)
        assert classify_component(x, y) == "same_component"
        assert hennion_distance(x, y) < 1.0

    def test_mixed_pair(self, qubit, rng):
        x = random_state(qubit, "full", rng)
        p = random_state(qubit, "pure", rng)
        assert classify_component(x, p) == "distance_one"
        assert hennion_distance(x, p) == 1.0

    def test_orthogonal_singular_pair(self, qubit):
        x = diag_state(qubit, [1.0, 0.0])
        y = diag_state(qubit, [0.0, 1.0])
        assert classify_component(x, y) == "distance_one"
        assert hennion_distance(x, y) == 1.0

    def test_equal_singular_pair(self, qubit, rng):
        p = random_state(qubit, "pure", rng)
        assert classify_component(p, p) == "same_component"


class TestIndefiniteFirstArgument:
    def test_matches_bisection(self, qubit):
        x = qubit.element([np.diag([1.0, -1.0])])
        y = qubit.element([np.diag([1.0, 0.0])])
        assert m_quantity_bisection(x, y).value == 0.0
        assert m_quantity(x, y).value == 0.0

    def test_random_indefinite_match_bisection(self, two_blocks, rng):
        for _ in range(20):
            x = random_state(two_blocks, "full", rng)
            eigs = np.concatenate([np.linalg.eigvalsh(b) for b in x.blocks])
            shifted = x.element - 0.5 * (eigs.min() + eigs.max()) * two_blocks.identity()
            y = random_state(two_blocks, "pure", rng)
            assert m_quantity_bisection(shifted, y).value == 0.0
            assert m_quantity(shifted, y).value == 0.0

    def test_roundoff_negative_keeps_support_path(self, qubit):
        # an eigenvalue inside the bisection slack is roundoff, not a sign
        x = qubit.element([np.diag([1.0, -1e-18])])
        y = qubit.element([np.diag([1.0, 0.0])])
        assert m_quantity_bisection(x, y).value == 1.0
        assert m_quantity(x, y).value == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("neg", [1e-12, 1e-10])
    def test_accepted_state_with_negative_eigenvalue(self, qubit, neg):
        # State.from_element accepts eigenvalues down to -pos_tol; such a
        # state is at distance zero from itself
        x = diag_state(qubit, [1.0, -neg])
        assert x.min_eigenvalue < -64.0 * np.finfo(float).eps
        assert m_quantity_bisection(x, x).value == 1.0
        assert m_quantity(x, x).value == pytest.approx(1.0, abs=1e-12)
        assert hennion_distance(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_negativity_beyond_state_tolerance_gives_zero(self, qubit):
        x = qubit.element([np.diag([1.0, -1e-8])])
        y = qubit.element([np.diag([1.0, 0.0])])
        assert m_quantity_bisection(x, y).value == 0.0
        assert m_quantity(x, y).value == 0.0


def _stack(states):
    alg = states[0].algebra
    return [np.stack([x.blocks[b] for x in states]) for b in range(alg.n_blocks)]


def _bisection_distance(x, y):
    """The distance from two ``m_quantity_bisection`` values: an oracle that
    shares no code with the eigenpencil kernel."""
    q = m_quantity_bisection(x, y, tol=1e-12).value * m_quantity_bisection(y, x, tol=1e-12).value
    return 1.0 if q < 1e-15 else (1.0 - q) / (1.0 + q)


def _axis_states(alg):
    """The diagonal pure states: one per block and diagonal entry."""
    out = []
    for b, n in enumerate(alg.block_dims):
        for k in range(n):
            blocks = [np.zeros((m, m)) for m in alg.block_dims]
            blocks[b][k, k] = 1.0
            out.append(State.from_element(alg.element(blocks) * (1.0 / alg.trace_weights[b])))
    return out


class TestStackedDistance:
    @pytest.mark.parametrize("alg_name", ["qubit", "qutrit", "two_blocks"])
    def test_invertible_pairs_match_scalar(self, alg_name, request, rng):
        alg = request.getfixturevalue(alg_name)
        xs = [random_state(alg, "full", rng) for _ in range(25)]
        ys = [random_state(alg, "full", rng) for _ in range(25)]
        d = hennion_distance_many(_stack(xs), _stack(ys))
        for k, (x, y) in enumerate(zip(xs, ys)):
            assert abs(d[k] - _bisection_distance(x, y)) <= 1e-9

    @pytest.mark.parametrize("alg_name", ["qubit", "qutrit", "two_blocks"])
    def test_pure_and_boundary_pairs_are_counted(self, alg_name, request, rng):
        # full, pure, boundary and axis states in every combination, in one
        # stack, so that the support test runs on some elements of a block
        alg = request.getfixturevalue(alg_name)
        kinds = ["full", "pure", "boundary"]
        states = [random_state(alg, kinds[k % 3], rng) for k in range(6)] + _axis_states(alg)
        xs = [x for x in states for _ in states]
        ys = [y for _ in states for y in states]
        d = hennion_distance_many(_stack(xs), _stack(ys))
        assert {1.0, 0.0} <= set(np.round(d, 12)) and (d < 1.0).sum() > len(states)
        for k, (x, y) in enumerate(zip(xs, ys)):
            assert abs(d[k] - _bisection_distance(x, y)) <= 1e-9, k

    def test_floor_gives_distance_one(self, qubit):
        x = diag_state(qubit, [1.0, 1e-11])
        y = diag_state(qubit, [1e-11, 1.0])
        d = hennion_distance_many(_stack([x]), _stack([y]))
        assert d[0] == hennion_distance(x, y) == 1.0


def _pinned_pairs():
    """Named (x, y) pairs for ``TestPinnedOrderCoefficients``: singular,
    ranked, indefinite, support-mismatched, scaled and multi-block."""
    from hennion_lab import make_algebra

    def diag(alg, *entries):
        return alg.element([np.diag(np.asarray(e, dtype=complex)) for e in entries])

    def pure(alg, block, v):
        v = np.asarray(v, dtype=complex)
        blocks = [np.zeros((n, n), dtype=complex) for n in alg.block_dims]
        blocks[block] = np.outer(v, v.conj()) / np.vdot(v, v).real
        return alg.element(blocks)

    m2 = make_algebra([2], [1.0])
    m3 = make_algebra([3], [1.0])
    m22 = make_algebra([2, 2], [1.0, 3.0])
    m2c = make_algebra([2, 1], [1.0, 2.0])
    m32 = make_algebra([3, 2], [2.0, 1.0])
    rng = np.random.default_rng(314)

    def draw(alg, kind, rank=None):
        return random_state(alg, kind, rng, rank=rank).element

    full = draw(m2, "full")
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    w -= v * np.vdot(v, w) / np.vdot(v, v)  # orthogonal to v
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    rank2 = pure(m3, 0, v) + 0.3 * pure(m3, 0, w)
    rank2b = 0.6 * pure(m3, 0, v + 0.5 * w) + pure(m3, 0, v - 2.0 * w)
    tilt = np.array([1.0, 0.0]) + np.array([0.0, 1.0]) * 1e-9
    return [
        ("projection vs identity", diag(m2, [1, 0]), m2.identity()),
        ("floor pair", diag(m2, [1, 1e-11]), diag(m2, [1e-11, 1])),
        ("diagonal family", diag(m2, [1, 0.5]), diag(m2, [1, 0.25])),
        ("orthogonal pures", diag(m2, [1, 0]), diag(m2, [0, 1])),
        ("pure vs itself", pure(m2, 0, [1, 1j]), pure(m2, 0, [1, 1j])),
        ("pure vs full", pure(m2, 0, [1, 2 - 1j]), full),
        ("below the rank cut", diag(m2, [1, 1e-13]), diag(m2, [1, 0])),
        ("roundoff negative", diag(m2, [1, -1e-18]), diag(m2, [1, 0])),
        ("accepted negative", diag(m2, [1, -1e-10]), diag(m2, [1, -1e-10])),
        ("negative beyond tolerance", diag(m2, [1, -1e-8]), diag(m2, [1, 0])),
        ("indefinite", diag(m2, [1, -1]), diag(m2, [1, 0])),
        ("scaled full", 3.7 * full, draw(m2, "full")),
        ("full pair", draw(m2, "full"), draw(m2, "full")),
        ("support tilted inside tolerance", pure(m2, 0, tilt), diag(m2, [1, 0])),
        ("support tilted beyond tolerance", pure(m2, 0, [1, 1e-6]), diag(m2, [1, 0])),
        ("M3 rank 2 vs pure inside", rank2, pure(m3, 0, v + w)),
        ("M3 rank 2 vs rank 2, same support", rank2, rank2b),
        ("M3 rank 2 vs full", rank2, draw(m3, "full")),
        ("M3 rank 2 vs pure outside", rank2, pure(m3, 0, u)),
        ("M3 full pair", draw(m3, "full"), draw(m3, "full")),
        ("M3 ranked pair", draw(m3, "ranked", 2), draw(m3, "ranked", 2)),
        ("M3 indefinite", draw(m3, "full") - 0.4 * m3.identity(), draw(m3, "full")),
        ("M2+M2 one block vs full", diag(m22, [1, 0.5], [0, 0]), draw(m22, "full")),
        ("M2+M2 disjoint blocks", diag(m22, [1, 0.5], [0, 0]), diag(m22, [0, 0], [1, 1])),
        ("M2+M2 pure inside one block", pure(m22, 0, [1, 1j]), diag(m22, [1, 0.5], [0, 0])),
        ("M2+M2 one block each way", diag(m22, [1, 0.2], [0, 0]), diag(m22, [0.3, 1], [0, 0])),
        ("M2+M2 full pair", draw(m22, "full"), draw(m22, "full")),
        ("M2+M2 full vs one block", draw(m22, "full"), diag(m22, [0, 0], [0.5, 1])),
        ("M2+M2 pures in two blocks", pure(m22, 0, [1, 2]), pure(m22, 1, [1j, 1])),
        ("M2+M2 boundary vs pure", draw(m22, "boundary"), draw(m22, "pure")),
        ("M2+C full pair", draw(m2c, "full"), draw(m2c, "full")),
        ("M2+C no C part vs full", diag(m2c, [1, 0.5], [0]), draw(m2c, "full")),
        ("M2+C full vs no C part", draw(m2c, "full"), diag(m2c, [0.4, 1], [0])),
        ("M2+C C only vs M2 only", diag(m2c, [0, 0], [1]), diag(m2c, [1, 1], [0])),
        ("M3+M2 full pair", draw(m32, "full"), draw(m32, "full")),
        ("M3+M2 ranked pair", draw(m32, "ranked", 2), draw(m32, "ranked", 2)),
        ("M3+M2 boundary vs pure", draw(m32, "boundary"), draw(m32, "pure")),
        ("M3+M2 rank 1 in a block", diag(m32, [1, 2, 3], [1, 0]), diag(m32, [2, 1, 1], [0.5, 0])),
        ("M3+M2 indefinite block", diag(m32, [1, 2, 3], [1, -0.1]), draw(m32, "full")),
        ("M3+M2 small scale", 1e-3 * draw(m32, "full"), draw(m32, "full")),
    ]


class TestPinnedOrderCoefficients:
    """``m_quantity`` both ways and ``hennion_distance``, bit for bit, as the
    per-block scalar eigenpencil computed them before the stacked kernel."""

    PINNED = {
        'projection vs identity': (0.0, 1.0, 1.0),
        'floor pair': (9.999999999999998e-12, 9.999999999999998e-12, 1.0),
        'diagonal family': (1.0, 0.5, 0.3333333333333333),
        'orthogonal pures': (0.0, 0.0, 1.0),
        'pure vs itself': (1.0000000000000002, 1.0000000000000002, 0.0),
        'pure vs full': (0.0, 0.8153218657276315, 1.0),
        'below the rank cut': (1.0, 1.0, 0.0),
        'roundoff negative': (1.0, 1.0, 0.0),
        'accepted negative': (1.0, 1.0, 0.0),
        'negative beyond tolerance': (0.0, 1.0, 1.0),
        'indefinite': (0.0, 1.0, 1.0),
        'scaled full': (0.7590275436950681, 0.033411439518764276, 0.950534060521797),
        'full pair': (0.011937967465743793, 0.10563698272055441, 0.9974809949684342),
        'support tilted inside tolerance': (1.0, 1.0, 0.0),
        'support tilted beyond tolerance': (0.0, 0.0, 1.0),
        'M3 rank 2 vs pure inside': (0.6383936425227824, 0.0, 1.0),
        'M3 rank 2 vs rank 2, same support': (0.4325835080894395, 0.7031651272957816, 0.5335334255424886),
        'M3 rank 2 vs full': (0.0, 0.5726175288101402, 1.0),
        'M3 rank 2 vs pure outside': (0.0, 0.0, 1.0),
        'M3 full pair': (0.012476489800175097, 0.12904877671465692, 0.9967850248606861),
        'M3 ranked pair': (0.0, 0.0, 1.0),
        'M3 indefinite': (0.0, 0.1462244284135833, 1.0),
        'M2+M2 one block vs full': (0.0, 0.6126219151664922, 1.0),
        'M2+M2 disjoint blocks': (0.0, 0.0, 1.0),
        'M2+M2 pure inside one block': (0.0, 0.6666666666666667, 1.0),
        'M2+M2 one block each way': (0.19999999999999996, 0.3, 0.8867924528301887),
        'M2+M2 full pair': (0.04008219602887603, 0.0805710180799497, 0.9935618650389872),
        'M2+M2 full vs one block': (0.023442321534804134, 0.0, 1.0),
        'M2+M2 pures in two blocks': (0.0, 0.0, 1.0),
        'M2+M2 boundary vs pure': (0.2972123517314147, 0.0, 1.0),
        'M2+C full pair': (0.4908090884950078, 0.049073768995729454, 0.9529612643573336),
        'M2+C no C part vs full': (0.0, 0.6703414814382705, 1.0),
        'M2+C full vs no C part': (0.41738909389999557, 0.0, 1.0),
        'M2+C C only vs M2 only': (0.0, 0.0, 1.0),
        'M3+M2 full pair': (0.019122611043375506, 0.007936867038674958, 0.9996964988209059),
        'M3+M2 ranked pair': (0.0, 0.0, 1.0),
        'M3+M2 boundary vs pure': (0.0, 0.0, 1.0),
        'M3+M2 rank 1 in a block': (0.5, 0.3333333333333333, 0.7142857142857143),
        'M3+M2 indefinite block': (0.0, 0.059066487645167705, 1.0),
        'M3+M2 small scale': (3.2085545675730632e-06, 10.812316825529582, 0.9999306185899004),
    }

    def test_values_unchanged(self):
        pairs = _pinned_pairs()
        assert [name for name, _, _ in pairs] == list(self.PINNED)
        for name, x, y in pairs:
            got = (m_quantity(x, y).value, m_quantity(y, x).value, hennion_distance(x, y))
            assert got == self.PINNED[name], name

    def test_negative_second_argument_rejected(self, qubit):
        with pytest.raises(RejectedInputError, match="numerically zero"):
            m_quantity(qubit.identity(), -1.0 * qubit.identity())
        assert m_quantity(-1.0 * qubit.identity(), qubit.identity()).value == 0.0

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


class TestStackedDistance:
    @pytest.mark.parametrize("alg_name", ["qubit", "qutrit", "two_blocks"])
    def test_invertible_pairs_match_scalar(self, alg_name, request, rng):
        alg = request.getfixturevalue(alg_name)
        xs = [random_state(alg, "full", rng) for _ in range(25)]
        ys = [random_state(alg, "full", rng) for _ in range(25)]
        d, singular = hennion_distance_many(alg, _stack(xs), _stack(ys))
        assert singular == 0
        for k, (x, y) in enumerate(zip(xs, ys)):
            assert abs(d[k] - hennion_distance(x, y)) <= 1e-12

    @pytest.mark.parametrize("alg_name", ["qubit", "qutrit", "two_blocks"])
    def test_pure_and_boundary_pairs_are_counted(self, alg_name, request, rng):
        alg = request.getfixturevalue(alg_name)
        kinds = ["full", "pure", "boundary"]
        xs = [random_state(alg, kinds[k % 3], rng) for k in range(12)]
        ys = [random_state(alg, kinds[(k // 3) % 3], rng) for k in range(12)]
        d, singular = hennion_distance_many(alg, _stack(xs), _stack(ys))
        assert singular == sum(not (x.is_invertible and y.is_invertible) for x, y in zip(xs, ys))
        for k, (x, y) in enumerate(zip(xs, ys)):
            assert abs(d[k] - hennion_distance(x, y)) <= 1e-12

    def test_floor_gives_distance_one(self, qubit):
        x = diag_state(qubit, [1.0, 1e-11])
        y = diag_state(qubit, [1e-11, 1.0])
        d, singular = hennion_distance_many(qubit, _stack([x]), _stack([y]))
        assert singular == 0
        assert d[0] == hennion_distance(x, y) == 1.0

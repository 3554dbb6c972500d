import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hennion_lab import (
    State,
    is_positive,
    make_algebra,
    norm,
    random_state,
    support_projection,
    tensor_algebra,
    tensor_element,
    trace,
)
from hennion_lab.algebra import element_from_payload, element_to_payload, random_state_stack
from hennion_lab.errors import RejectedInputError, ShapeMismatchError


class TestMakeAlgebra:
    def test_single_block_normalization(self):
        alg = make_algebra([2], [1.0])
        assert alg.trace_weights == (0.5,)

    def test_two_point_symmetry(self):
        alg = make_algebra([1, 1], [1.0, 1.0])
        assert alg.trace_weights == (0.5, 0.5)

    def test_weighted_two_block(self):
        # 1*2 + 2*3 = 8, so raw weights (1, 2) scale to (1/8, 2/8)
        alg = make_algebra([2, 3], [1.0, 2.0])
        assert alg.trace_weights == pytest.approx((1 / 8, 2 / 8), abs=1e-15)

    def test_unit_trace_identity(self):
        alg = make_algebra([2, 3, 4], [0.3, 1.7, 0.2])
        assert trace(alg, alg.identity()).real == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(RejectedInputError):
            make_algebra([], [])
        with pytest.raises(RejectedInputError):
            make_algebra([2], [0.0])
        with pytest.raises(RejectedInputError):
            make_algebra([2, 2], [1.0])


class TestTrace:
    def test_identity(self, qubit):
        assert trace(qubit, qubit.identity()) == pytest.approx(1.0)

    def test_projection(self, qubit):
        x = qubit.element([np.diag([1.0, 0.0])])
        assert trace(qubit, x).real == pytest.approx(0.5)

    def test_weighted_blocks(self):
        alg = make_algebra([2, 1], [1.0, 2.0])
        assert alg.trace_weights == pytest.approx((0.25, 0.5))
        x = alg.element([np.diag([2.0, 0.0]), np.zeros((1, 1))])
        assert trace(alg, x).real == pytest.approx(0.5)

    def test_tracial_property(self, two_blocks, rng):
        for _ in range(50):
            x = random_state(two_blocks, "full", rng).element
            y = random_state(two_blocks, "full", rng).element
            assert abs(trace(two_blocks, x @ y) - trace(two_blocks, y @ x)) <= 1e-10


class TestNorms:
    def test_identity_norms(self, qubit):
        one = qubit.identity()
        for kind in ("one", "two", "inf"):
            assert norm(qubit, one, kind) == pytest.approx(1.0)

    def test_traceless_element(self, qubit):
        x = qubit.element([np.diag([1.0, -1.0])])
        assert norm(qubit, x, "one") == pytest.approx(1.0)
        assert norm(qubit, x, "inf") == pytest.approx(1.0)

    def test_state_trace_norm(self, two_blocks, rng):
        for kind in ("pure", "full", "boundary"):
            x = random_state(two_blocks, kind, rng)
            assert norm(two_blocks, x.element, "one") == pytest.approx(1.0, abs=1e-10)

    def test_norm_ordering(self, qutrit, rng):
        for _ in range(25):
            x = random_state(qutrit, "full", rng).element
            n1 = norm(qutrit, x, "one")
            n2 = norm(qutrit, x, "two")
            ninf = norm(qutrit, x, "inf")
            assert n1 <= n2 + 1e-12 <= ninf + 2e-12

    def test_trace_norm_duality(self, qubit, rng):
        # ||x||_1 is the sup of |tau(b x)| over contractions b: random
        # contractions stay below it, and the sign contraction (built by an
        # independent decomposition routine) attains it
        import scipy.linalg

        x = random_state(qubit, "full", rng).element - 0.7 * qubit.identity()
        target = norm(qubit, x, "one")
        best = 0.0
        for _ in range(1000):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = g / np.linalg.svd(g, compute_uv=False)[0]
            best = max(best, abs(trace(qubit, qubit.element([b]) @ x)))
        assert best <= target + 1e-10
        w, u = scipy.linalg.eigh(x.blocks[0])
        sign = qubit.element([(u * np.sign(w)) @ u.conj().T])
        attained = abs(trace(qubit, sign @ x))
        assert abs(attained - target) <= 1e-6
        assert target - best <= 0.2  # random probes come close but not tight


class TestPositivity:
    def test_identity_positive(self, qubit):
        assert is_positive(qubit, qubit.identity())

    def test_witness(self, qubit):
        check = is_positive(qubit, qubit.element([np.diag([1.0, -1e-3])]), tol=1e-9)
        assert not check
        assert check.min_eigenvalue == pytest.approx(-1e-3)
        assert check.witness_block == 0

    def test_rejects_non_hermitian(self, qubit):
        with pytest.raises(RejectedInputError):
            is_positive(qubit, qubit.element([np.array([[0.0, 1.0], [0.0, 0.0]])]))

    def test_cone_closure(self, two_blocks, rng):
        for _ in range(100):
            x = random_state(two_blocks, "full", rng).element
            y = random_state(two_blocks, "pure", rng).element
            s, t = rng.uniform(0, 3, size=2)
            assert is_positive(two_blocks, s * x + t * y)

    def test_faithfulness_proxy(self, qubit, rng):
        # tau(x*x) = 0 forces the element itself to vanish
        for _ in range(20):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            x = qubit.element([g / max(np.abs(g).max(), 1e-12)])
            val = trace(qubit, x.adjoint() @ x).real
            if val <= 1e-16:
                assert norm(qubit, x, "inf") <= 1e-8


class TestSupportProjection:
    def test_invertible_state(self, qubit, rng):
        x = random_state(qubit, "full", rng)
        p = support_projection(qubit, x.element)
        assert norm(qubit, p - qubit.identity(), "inf") <= 1e-10

    def test_rank_one(self, qubit):
        p = support_projection(qubit, qubit.element([np.diag([2.0, 0.0])]))
        assert np.allclose(p.blocks[0], np.diag([1.0, 0.0]))

    def test_tiny_eigenvalue_excluded(self, qubit):
        x = qubit.element([np.diag([1.0, 1e-15])])
        p = support_projection(qubit, x)
        assert trace(qubit, p).real == pytest.approx(0.5)

    def test_idempotent_hermitian(self, two_blocks, rng):
        x = random_state(two_blocks, "boundary", rng)
        p = support_projection(two_blocks, x.element)
        assert norm(two_blocks, p @ p - p, "inf") <= 1e-10
        assert norm(two_blocks, p - p.adjoint(), "inf") <= 1e-12


class TestRandomState:
    def test_pure_axis_vector(self, qubit):
        # a pure state along the first axis is diag(2, 0) under tau = Tr/2
        v = np.array([1.0, 0.0])
        x = np.outer(v, v.conj())
        s = State.from_element(qubit.element([x / trace(qubit, qubit.element([x])).real]))
        assert np.allclose(s.element.blocks[0], np.diag([2.0, 0.0]))

    def test_kinds(self, two_blocks, rng):
        assert random_state(two_blocks, "full", rng).component_tag == "invertible"
        assert random_state(two_blocks, "pure", rng).component_tag == "singular"
        assert random_state(two_blocks, "boundary", rng).component_tag == "singular"
        s = random_state(two_blocks, "ranked", rng, rank=2)
        assert s.component_tag == "singular"

    def test_boundary_corank_one(self, qutrit, rng):
        s = random_state(qutrit, "boundary", rng)
        eigs = np.linalg.eigvalsh(s.element.blocks[0])
        assert eigs[0] <= 1e-12
        assert eigs[1] >= 1e-6

    @pytest.mark.parametrize("dims", [[2], [3], [2, 2]], ids=["M2", "M3", "M2+M2"])
    def test_stack_matches_per_draw(self, dims):
        # the stacked draw (one eigh per block over all boundary draws) is
        # bit-equal to one random_state call per kind and consumes rng alike
        alg = make_algebra(dims, [1.0] * len(dims))
        kinds = ["boundary", "pure", "full", "boundary", "boundary", "pure"] * 3
        rng_stack, rng_single = np.random.default_rng(5), np.random.default_rng(5)
        stacks = random_state_stack(alg, kinds, rng_stack)
        for j, kind in enumerate(kinds):
            single = random_state(alg, kind, rng_single).element.blocks
            for blk, ref in zip(stacks, single):
                assert np.array_equal(blk[j], ref)
        assert rng_stack.bit_generator.state == rng_single.bit_generator.state

    def test_pure_ensemble_mean(self, qubit, rng):
        # unitary invariance: averaged pure states approach the identity
        a = qubit.element([np.array([[0.7, 0.2], [0.2, 0.1]])])
        ta = trace(qubit, a).real
        vals = [
            trace(qubit, random_state(qubit, "pure", rng).element @ a).real
            for _ in range(10_000)
        ]
        assert np.mean(vals) == pytest.approx(ta, abs=0.05)


class TestElementArithmetic:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_adjoint_product(self, seed):
        alg = make_algebra([2, 3], [1.0, 1.0])
        rng = np.random.default_rng(seed)
        x = alg.element(
            [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in alg.block_dims]
        )
        y = alg.element(
            [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in alg.block_dims]
        )
        lhs = (x @ y).adjoint()
        rhs = y.adjoint() @ x.adjoint()
        assert norm(alg, lhs - rhs, "inf") <= 1e-12

    def test_shape_mismatch(self, qubit, qutrit):
        x = qubit.identity()
        y = qutrit.identity()
        with pytest.raises(ShapeMismatchError):
            _ = x + y

    def test_blocks_frozen(self, qubit):
        x = qubit.identity()
        with pytest.raises(ValueError):
            x.blocks[0][0, 0] = 5.0

    def test_coefficients_round_trip(self, two_blocks, rng):
        x = random_state(two_blocks, "full", rng).element
        back = two_blocks.from_coefficients(two_blocks.coefficients(x))
        assert norm(two_blocks, x - back, "inf") <= 1e-12

    def test_basis_built_on_first_use(self, rng):
        # the (4096, 64, 64) basis of a 64x64 block takes 256 MB, so an
        # algebra that is only checked against must not allocate it
        alg = make_algebra([64], [1.0])
        assert "_basis" not in vars(alg)
        g = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        x = alg.element([g])
        coeffs = alg.coefficients(x)
        assert "_basis" in vars(alg)
        assert norm(alg, x - alg.from_coefficients(coeffs), "inf") <= 1e-12


class TestTensorHelpers:
    def test_tensor_algebra_weights(self):
        a = make_algebra([2], [1.0])
        b = make_algebra([2], [1.0])
        ab = tensor_algebra(a, b)
        assert ab.block_dims == (4,)
        assert ab.trace_weights == (0.25,)

    def test_tensor_trace_factorizes(self, rng):
        a = make_algebra([2], [1.0])
        ab = tensor_algebra(a, a)
        x = random_state(a, "full", rng).element
        y = random_state(a, "full", rng).element
        z = tensor_element(ab, x, y)
        assert trace(ab, z).real == pytest.approx(
            trace(a, x).real * trace(a, y).real, abs=1e-12
        )


class TestMatrixFiles:
    def test_round_trip_exact(self, two_blocks, rng, tmp_path):
        from hennion_lab.algebra import load_element, save_element

        x = random_state(two_blocks, "full", rng).element
        path = tmp_path / "state.json"
        save_element(str(path), x)
        y = load_element(str(path))
        assert all(np.array_equal(bx, by) for bx, by in zip(x.blocks, y.blocks))
        assert y.algebra.block_dims == two_blocks.block_dims

    def test_payload_schema(self, qubit):
        payload = element_to_payload(qubit.identity())
        assert payload["algebra"]["dims"] == [2]
        blob = json.dumps(payload)
        back = element_from_payload(json.loads(blob))
        assert np.array_equal(back.blocks[0], np.eye(2))

    def test_malformed_payload(self):
        with pytest.raises(RejectedInputError):
            element_from_payload({"algebra": {"dims": [2]}})

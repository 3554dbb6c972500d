import dataclasses

import numpy as np
import pytest

from hennion_lab import (
    State,
    hennion_distance,
    line_decomposition,
    make_algebra,
    norm,
    random_state,
    trace,
)
from hennion_lab import qmaps
from hennion_lab.errors import (
    HypothesisViolationError,
    KernelStateError,
    RejectedInputError,
)
from hennion_lab.config import DEFAULT_TOLS
from hennion_lab.hennion import m_quantity
from hennion_lab.qmaps import (
    MapFlags,
    SuperOperator,
    certified_upper,
    compose,
    contraction_estimate,
    dephasing_map,
    depolarizing_channel,
    faithfulness_check,
    from_kraus,
    from_matrix,
    from_strongly_summable,
    identity_map,
    irreducibility_probe,
    is_strict_contraction,
    mixed_unitary_channel,
    perron_state,
    predual,
    projective_action,
    projective_action_many,
    replacement_channel,
    transpose_map,
    unitalize,
    validate_flags,
)
from hennion_lab.qmaps import _choi_blocks, _choi_is_psd, _choi_sandwich


def random_faithful_map(alg, seed, mix=0.3):
    from hennion_lab.process import ChannelEnsemble

    return ChannelEnsemble.random_kraus(alg, k=3, mix_eps=mix).channel_at(seed)


def _damping(alg, gamma, eta=0.0):
    """Amplitude damping on M2 at rate gamma; with eta > 0, plus a reverse
    jump of rate eta, renormalized to a channel of Kraus rank 3."""
    kraus = [np.array([[1, 0], [0, np.sqrt(1 - gamma)]]), np.array([[0, np.sqrt(gamma)], [0, 0]])]
    if eta:
        kraus.append(np.array([[0, 0], [np.sqrt(eta), 0]]))
        w, v = np.linalg.eigh(sum(k.T @ k for k in kraus))
        kraus = [k @ (v / np.sqrt(w)) @ v.T for k in kraus]
    return from_kraus(alg, [alg.element([k.astype(complex)]) for k in kraus])


def _certificate_maps():
    """Named maps whose Perron reference state is invertible: random_kraus
    compositions of length 1-6 on M2, M3 and M2+M2, depolarizing-mixture
    compositions at lengths 10-60 (down to the double-precision floor),
    depolarizing after the transpose, three chain flanks, and damped maps
    whose Perron state, hence C(T), is ill-conditioned (an eigenvalue of
    2e-4 to 2e-8), one of them with a singular C(s)."""
    from hennion_lab.fcs import random_unital_generator
    from hennion_lab.process import ChannelEnsemble, ErgodicDriver

    out = []
    for dims, weights in (([2], [1.0]), ([3], [1.0]), ([2, 2], [1.0, 3.0])):
        ens = ChannelEnsemble.random_kraus(make_algebra(dims, weights), k=3, mix_eps=0.3)
        for length in range(1, 7):
            s = ens.channel_at(500 + 10 * length)
            for k in range(1, length):
                s = compose(ens.channel_at(500 + 10 * length + k), s)
            out.append((f"random_kraus {dims} length {length}", s))
    qubit = make_algebra([2], [1.0])
    dep = [depolarizing_channel(qubit, 0.5), depolarizing_channel(qubit, 0.6)]
    ens = ChannelEnsemble.mixture(dep, [0.5, 0.5])
    driver = ErgodicDriver("iid_shift", master_seed=7)
    for length in (10, 30, 45, 60):
        s = ens.channel_at(driver.point_at(0))
        for n in range(1, length):
            s = compose(ens.channel_at(driver.point_at(n)), s)
        out.append((f"depolarizing mixture length {length}", s))
    out.append(("depolarizing after transpose", compose(dep[0], transpose_map(qubit))))
    gen = random_unital_generator(qubit, qubit, kraus_rank=2)
    for length in (1, 6, 12):
        flank = np.eye(qubit.dim)
        for site in range(length):
            flank = gen.induced_phi(driver.point_at(site)).matrix.T @ flank
        flags = MapFlags(positive="yes", faithful="yes")
        out.append((f"chain flank length {length}", SuperOperator(qubit, flank, flags)))
    half = _damping(qubit, 0.5)
    for eps in (1e-4, 1e-6, 1e-8):
        noise = depolarizing_channel(qubit, eps)
        out.append((f"depolarizing({eps}) after damping", compose(noise, half)))
    damped = compose(_damping(qubit, 0.3), compose(_damping(qubit, 0.3), half))
    noise = depolarizing_channel(qubit, 1e-8)
    out.append(("depolarizing(1e-8) after three dampings", compose(noise, damped)))
    jump = _damping(qubit, 0.5, 1e-8)
    out.append(("damping with reverse jump", jump))  # C(s) singular
    out.append(("damping after damping with reverse jump", compose(_damping(qubit, 0.4), jump)))
    return out


def _reference_map(s, x0):
    """T(x) = tau(s*(1) x) x0, the map that ``_choi_sandwich`` compares s with."""
    alg = s.algebra
    c1 = alg.coefficients(alg.identity())
    return SuperOperator(alg, np.outer(alg.coefficients(x0.element), s.matrix.T @ c1))


class TestKrausConstruction:
    def test_single_identity_kraus(self, qubit):
        s = from_kraus(qubit, [qubit.identity()])
        assert np.allclose(s.matrix, np.eye(4))
        assert s.flags.completely_positive == "yes"

    def test_dephasing_kraus(self, qubit, rng):
        k1 = qubit.element([np.diag([1.0, 0.0])])
        k2 = qubit.element([np.diag([0.0, 1.0])])
        s = from_kraus(qubit, [k1, k2])
        x = random_state(qubit, "full", rng).element
        out = s.apply(x)
        assert np.allclose(out.blocks[0], np.diag(np.diag(x.blocks[0])))

    def test_isometry_stack_unital(self, qubit, rng):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, _ = np.linalg.qr(g)
        s = from_kraus(qubit, [qubit.element([q])])
        assert s.flags.unital == "yes"
        assert s.flags.tracial == "yes"

    def test_empty_rejected(self, qubit):
        with pytest.raises(RejectedInputError):
            from_kraus(qubit, [])


class TestChoiValidation:
    def test_transpose_not_cp(self, qubit):
        assert transpose_map(qubit).flags.completely_positive == "no"

    def test_depolarizing_cp(self, qubit):
        assert depolarizing_channel(qubit, 0.5).flags.completely_positive == "yes"

    def test_multiblock_choi(self, two_blocks, rng):
        s = mixed_unitary_channel(two_blocks, rng)
        assert s.flags.completely_positive == "yes"

    def test_flags_are_frozen(self, qubit):
        s = depolarizing_channel(qubit, 0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.flags.faithful = "no"

    def test_flag_semantics_on_explicit_matrix(self, qubit):
        # the transpose map loaded as a raw matrix gets empirically
        # validated positivity with the probe count recorded
        s = from_matrix(qubit, transpose_map(qubit).matrix, n_probe=200)
        assert s.flags.completely_positive == "no"
        assert s.flags.positive == "yes"
        assert s.flags.positive_probes == 200


class TestStronglySummable:
    def test_replacement_from_single_pair(self, qubit, rng):
        x0 = random_state(qubit, "full", rng)
        s = from_strongly_summable(qubit, [(qubit.identity(), x0.element)])
        x = random_state(qubit, "pure", rng)
        out = projective_action(s, x)
        assert norm(qubit, out.element - x0.element, "one") <= 1e-10

    def test_rank_one_range_collapses(self, qubit, rng):
        m = random_state(qubit, "full", rng).element
        pairs = [(random_state(qubit, "full", rng).element, m) for _ in range(3)]
        s = from_strongly_summable(qubit, pairs)
        est = contraction_estimate(s, n_samples=12, refine_iters=0, rng=rng)
        assert est.upper_bound <= 1e-9

    def test_faithfulness_condition(self, qubit, rng):
        p = qubit.element([np.diag([1.0, 0.0])])
        m = random_state(qubit, "full", rng).element
        s = from_strongly_summable(qubit, [(p, m)])
        assert s.flags.faithful == "no"
        s2 = from_strongly_summable(qubit, [(qubit.identity(), m)])
        assert s2.flags.faithful == "yes"

    def test_sandwiched_family_certificate(self, qubit, rng):
        # middle factors pinched between eta*m and m/eta force the map into
        # a strict contraction with an explicit certificate value
        eta = 0.5
        base = random_state(qubit, "full", rng).element
        w, v = np.linalg.eigh(base.blocks[0])
        sq = qubit.element([(v * np.sqrt(w)) @ v.conj().T])
        pairs = []
        for _ in range(4):
            a = random_state(qubit, "full", rng).element
            c = rng.uniform(eta, 1 / eta)
            pairs.append((a, sq @ (c * qubit.identity()) @ sq))
        s = from_strongly_summable(qubit, pairs)
        est = contraction_estimate(s, n_samples=24, refine_iters=8, rng=rng)
        target = (1 - eta**8) / (1 + eta**8)
        assert est.upper_bound <= target + 1e-9
        # numerical check of the sandwich with kappa = eta^2 around base
        x0 = base * (1.0 / trace(qubit, base).real)
        for _ in range(200):
            x = random_state(qubit, "pure", rng)
            gx = projective_action(s, x).element
            lo = gx - eta**2 * x0
            hi = (1 / eta**2) * x0 - gx
            assert min(np.linalg.eigvalsh(lo.blocks[0])[0],
                       np.linalg.eigvalsh(hi.blocks[0])[0]) >= -1e-9


class TestPredual:
    def test_identity(self, qubit):
        s = identity_map(qubit)
        assert np.allclose(predual(s).matrix, np.eye(4))

    def test_pairing_identity(self, two_blocks, rng):
        s = random_faithful_map(two_blocks, 11)
        sd = predual(s)
        for _ in range(30):
            x = random_state(two_blocks, "full", rng).element
            a = random_state(two_blocks, "pure", rng).element
            assert abs(
                trace(two_blocks, sd.apply(x) @ a) - trace(two_blocks, x @ s.apply(a))
            ) <= 1e-10

    def test_involution(self, qubit, rng):
        s = random_faithful_map(qubit, 12)
        assert np.max(np.abs(predual(predual(s)).matrix - s.matrix)) <= 1e-12

    def test_replacement_heisenberg_pair(self, qubit, rng):
        # the dual of x -> tau(x) x0 sends a to tau(a x0) 1
        x0 = random_state(qubit, "full", rng)
        s = replacement_channel(qubit, x0)
        sd = predual(s)
        a = random_state(qubit, "full", rng).element
        expected = trace(qubit, a @ x0.element) * qubit.identity()
        assert norm(qubit, sd.apply(a) - expected, "inf") <= 1e-10

    def test_kraus_dual_swaps_order(self, qubit, rng):
        ops = [
            qubit.element([rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))])
            for _ in range(2)
        ]
        s = from_kraus(qubit, ops)
        sd = predual(s)
        a = random_state(qubit, "full", rng).element
        manual = qubit.zero()
        for k in ops:
            manual = manual + k.adjoint() @ a @ k
        assert norm(qubit, sd.apply(a) - manual, "inf") <= 1e-10

    def test_unital_tracial_swap(self, qubit, rng):
        s = validate_flags(random_faithful_map(qubit, 13))
        sd = predual(s)
        assert sd.flags.unital == s.flags.tracial
        assert sd.flags.tracial == s.flags.unital

    def test_leaves_argument_flags(self, qubit):
        s = SuperOperator(qubit, depolarizing_channel(qubit, 0.5).matrix)
        sd = predual(s)
        assert s.flags == MapFlags()
        assert sd.flags.completely_positive == "yes"

    def test_positivity_transfers(self, qubit):
        s = transpose_map(qubit)
        assert predual(s).flags.positive == "yes"

    def test_order_duality(self, qubit, rng):
        # alpha <= beta as maps iff their preduals compare the same way
        alpha = random_faithful_map(qubit, 14)
        gap = replacement_channel(qubit, random_state(qubit, "full", rng))
        # a sum of two hermiticity-preserving maps
        beta = SuperOperator(
            qubit, alpha.matrix + 0.5 * gap.matrix, MapFlags(hermiticity_preserving="yes")
        )
        pa, pb = predual(alpha), predual(beta)
        for _ in range(25):
            p = random_state(qubit, "pure", rng).element
            d1 = (beta.apply(p) - alpha.apply(p)).hermitize()
            d2 = (pb.apply(p) - pa.apply(p)).hermitize()
            assert np.linalg.eigvalsh(d1.blocks[0])[0] >= -1e-10
            assert np.linalg.eigvalsh(d2.blocks[0])[0] >= -1e-10


class TestProjectiveAction:
    def test_replacement_constant(self, qubit, rng):
        x0 = random_state(qubit, "full", rng)
        s = replacement_channel(qubit, x0)
        for kind in ("pure", "full", "boundary"):
            out = projective_action(s, random_state(qubit, kind, rng))
            assert norm(qubit, out.element - x0.element, "one") <= 1e-10

    def test_tracial_map_preserves_trace(self, qubit, rng):
        s = mixed_unitary_channel(qubit, rng)
        x = random_state(qubit, "full", rng)
        out = projective_action(s, x)
        assert norm(qubit, out.element - s.apply(x.element), "one") <= 1e-10

    def test_depolarizing_shrinks_bloch(self, qubit):
        x = State.from_element(qubit.element([np.diag([1.8, 0.2])]))
        out = projective_action(depolarizing_channel(qubit, 0.25), x)
        assert np.allclose(out.element.blocks[0], np.diag([1.6, 0.4]))

    def test_kernel_state_rejected(self, qubit, rng):
        # compress onto a corner so the complementary projection is killed
        k = qubit.element([np.diag([1.0, 0.0])])
        s = from_kraus(qubit, [k])
        bad = State.from_element(qubit.element([np.diag([0.0, 2.0])]))
        with pytest.raises(KernelStateError):
            projective_action(s, bad)

    def test_nonexpansive(self, qubit, rng):
        for i in range(100):
            s = random_faithful_map(qubit, 100 + i, mix=0.1 + 0.5 * (i % 4) / 4)
            x = random_state(qubit, "full", rng)
            y = random_state(qubit, "full", rng)
            assert hennion_distance(
                projective_action(s, x), projective_action(s, y)
            ) <= hennion_distance(x, y) + 1e-9

    def test_endpoint_refinement_bound(self, qubit, rng):
        # the contraction factor on a segment is the distance of the mapped
        # endpoint states
        for i in range(25):
            s = random_faithful_map(qubit, 200 + i)
            x = random_state(qubit, "full", rng)
            y = random_state(qubit, "full", rng)
            ld = line_decomposition(x, y)
            lhs = hennion_distance(projective_action(s, x), projective_action(s, y))
            factor = hennion_distance(
                projective_action(s, ld.A_minus), projective_action(s, ld.A_plus)
            )
            assert lhs <= factor * hennion_distance(x, y) + 1e-8


class TestCompose:
    def test_identity_neutral(self, qubit):
        s = depolarizing_channel(qubit, 0.3)
        assert np.allclose(compose(identity_map(qubit), s).matrix, s.matrix)

    def test_replacement_absorbs(self, qubit, rng):
        x0 = random_state(qubit, "full", rng)
        rep = replacement_channel(qubit, x0)
        s = random_faithful_map(qubit, 31)
        both = compose(rep, s)
        est = contraction_estimate(both, n_samples=8, refine_iters=0, rng=rng)
        assert est.upper_bound <= 1e-9

    def test_provenance_flattened(self, qubit):
        a = depolarizing_channel(qubit, 0.1)
        b = depolarizing_channel(qubit, 0.2)
        c = compose(compose(a, b), a)
        assert c.provenance["kind"] == "composition"
        assert len(c.provenance["factors"]) == 3


class TestFaithfulness:
    def test_unital_map_faithful(self, qubit, rng):
        s = mixed_unitary_channel(qubit, rng)
        assert faithfulness_check(s) == "yes"

    def test_corner_compression_not_faithful(self, qubit):
        p = qubit.element([np.diag([1.0, 0.0])])
        s = from_kraus(qubit, [p])
        assert faithfulness_check(s) == "no"

    def test_contraction_estimate_requires_faithful(self, qubit):
        p = qubit.element([np.diag([1.0, 0.0])])
        s = from_kraus(qubit, [p])
        with pytest.raises(HypothesisViolationError):
            contraction_estimate(s, n_samples=4, refine_iters=0)


class TestContractionEstimate:
    def test_interval_order(self, qubit, rng):
        for i in range(10):
            s = random_faithful_map(qubit, 400 + i)
            est = contraction_estimate(s, n_samples=16, refine_iters=4, rng=rng)
            assert est.lower_bound <= est.upper_bound + 1e-9
            assert 0.0 <= est.lower_bound <= 1.0
            assert est.upper_bound <= 1.0

    def test_fixed_point_property(self, qubit, rng):
        s = random_faithful_map(qubit, 41)
        est = contraction_estimate(s, n_samples=16, refine_iters=4, rng=rng)
        assert est.fixed_point_converged
        resid = norm(
            qubit,
            projective_action(s, est.fixed_point).element - est.fixed_point.element,
            "one",
        )
        assert resid <= 1e-9

    def test_fixed_point_unique_across_starts(self, qubit, rng):
        s = random_faithful_map(qubit, 42)
        est = contraction_estimate(s, n_samples=8, refine_iters=0, rng=rng)
        assert is_strict_contraction(s, est) == "certified_yes"
        limits = []
        for kind in ("full", "pure", "boundary", "full", "pure") * 2:
            x = random_state(qubit, kind, rng)
            for _ in range(400):
                nxt = projective_action(s, x)
                if norm(qubit, nxt.element - x.element, "one") <= 1e-12:
                    break
                x = nxt
            limits.append(x)
        for lim in limits[1:]:
            assert norm(qubit, lim.element - limits[0].element, "one") <= 1e-8

    def test_upper_matches_sandwich_ratio(self, qubit, rng):
        s = random_faithful_map(qubit, 43)
        est = contraction_estimate(s, n_samples=16, refine_iters=4, rng=rng)
        assert est.upper_method != "none"
        lam, mu = est.sandwich
        assert 0 < lam <= 1 <= mu
        assert est.eta == min(lam, 1 / mu)
        r2 = (lam / mu) ** 2
        assert est.upper_bound == pytest.approx(max((1 - r2) / (1 + r2), est.lower_bound))

    def test_transpose_is_isometry(self, qubit, rng):
        s = transpose_map(qubit)
        for _ in range(20):
            x = random_state(qubit, "full", rng)
            y = random_state(qubit, "full", rng)
            assert hennion_distance(
                projective_action(s, x), projective_action(s, y)
            ) == pytest.approx(hennion_distance(x, y), abs=1e-10)
        est = contraction_estimate(s, n_samples=16, refine_iters=0, rng=rng)
        assert is_strict_contraction(s, est) == "certified_no"

    def test_ascent_stops_at_roundoff(self, qubit, monkeypatch):
        # 56 depolarizing(0.5) steps: the image diameter is about 2^-55, so
        # every gain the ascent could find is roundoff in the objective
        s = depolarizing_channel(qubit, 0.5)
        for _ in range(55):
            s = compose(depolarizing_channel(qubit, 0.5), s)
        stacks = []
        ascend = qmaps._ascend

        def counting(objective, z0, steps, **kwargs):
            def counted(zs):
                stacks.append(len(zs))
                return objective(zs)

            return ascend(counted, z0, steps, **kwargs)

        monkeypatch.setattr(qmaps, "_ascend", counting)
        for seed in range(2, 8):
            stacks.clear()
            est = contraction_estimate(
                s, n_samples=8, refine_iters=50, rng=np.random.default_rng(seed)
            )
            assert est.upper_bound < 1e-13
            assert 0.0 <= est.lower_bound <= est.upper_bound
            # the start, one gradient stack (2 x 8 real coordinates), then the
            # full trial step and its 19 halvings, none clearing roundoff
            assert stacks == [1, 16, 1, 19], seed


class TestChoiCertificate:
    """The upper bound from Choi and co-Choi order coefficients."""

    @staticmethod
    def _grid_infimum(s, x0, n_theta=41, n_phi=81):
        """min(m(s.e, x0), m(x0, s.e)) over pure states e on a Bloch grid (M2)."""
        alg = s.algebra
        th, ph = np.meshgrid(
            np.linspace(0, np.pi, n_theta), np.linspace(0, 2 * np.pi, n_phi), indexing="ij"
        )
        v = np.stack([np.cos(th / 2), np.exp(1j * ph) * np.sin(th / 2)], -1).reshape(-1, 2)
        basis = np.stack([alg.basis_element(k).blocks[0] for k in range(alg.dim)])
        w = alg.trace_weights[0]
        pure = np.einsum("ni,nj->nij", v, v.conj()) / w
        coef = w * np.einsum("aji,nij->na", basis, pure)
        img = np.einsum("na,aij->nij", coef @ s.matrix.T, basis)
        img = img / (w * np.trace(img, axis1=1, axis2=2).real)[:, None, None]
        wx, vx = np.linalg.eigh(x0.element.blocks[0])
        inv_sqrt = (vx / np.sqrt(wx)) @ vx.conj().T
        spec = np.linalg.eigvalsh(inv_sqrt @ img @ inv_sqrt)
        return float(min(spec[:, 0].min(), (1.0 / spec[:, -1]).min()))

    def test_eta_never_exceeds_grid_infimum(self, qubit):
        # the sandwich must hold at every state, so its constant can be no
        # larger than the grid's minimum, which is itself above the infimum;
        # the relative 1e-12 is the grid's own roundoff
        from hennion_lab.process import ChannelEnsemble

        chans = ChannelEnsemble.random_kraus(qubit, k=3, mix_eps=0.3)
        for i in range(24):
            length = 1 + i % 3
            s = chans.channel_at(100 + 3 * i)
            for k in range(1, length):
                s = compose(chans.channel_at(100 + 3 * i + k), s)
            est = contraction_estimate(
                s, n_samples=8, refine_iters=0, rng=np.random.default_rng(i)
            )
            assert est.upper_method != "none"
            assert est.eta <= self._grid_infimum(s, est.fixed_point) * (1 + 1e-12)
            lam, mu = est.sandwich
            r2 = (lam / mu) ** 2
            assert (1 - r2) / (1 + r2) >= est.lower_bound - 1e-12  # the clamp is idle

    def test_depolarizing_anchor(self, qubit):
        est = contraction_estimate(depolarizing_channel(qubit, 0.5), n_samples=8, refine_iters=0)
        assert est.upper_bound == pytest.approx(0.8, abs=1e-12)
        assert est.sandwich == pytest.approx((0.5, 1.5), rel=1e-12)

    def test_transpose_composition_anchor(self, qubit):
        # not completely positive, so the Choi matrix cannot prove the lower
        # side; the co-Choi matrix proves it and the Choi matrix the upper
        s = compose(depolarizing_channel(qubit, 0.5), transpose_map(qubit))
        assert not _choi_is_psd(s)
        est = contraction_estimate(s, n_samples=8, refine_iters=0)
        assert est.upper_bound == pytest.approx(0.8, abs=1e-12)
        assert est.sandwich == pytest.approx((0.5, 1.5), rel=1e-12)
        assert est.upper_method == "mixed"

    @staticmethod
    def _sides(s, x0, co):
        """(lam, mu) of one Choi kind from per-unit images and Cholesky."""
        alg = s.algebra
        d = s.apply_dual(alg.identity())
        lams, mus = [], []
        for i, ni in enumerate(alg.block_dims):
            for j, nj in enumerate(alg.block_dims):
                cs = np.zeros((ni * nj, ni * nj), dtype=complex)
                for k in range(ni):
                    for l in range(ni):
                        blocks = [np.zeros((n, n), dtype=complex) for n in alg.block_dims]
                        blocks[i][(l, k) if co else (k, l)] = 1.0
                        img = s.apply(alg.element(blocks)).blocks[j]
                        cs[k * nj : (k + 1) * nj, l * nj : (l + 1) * nj] = img
                di = d.blocks[i] if co else d.blocks[i].T
                ct = np.kron(alg.trace_weights[i] * di, x0.element.blocks[j])
                low = np.linalg.inv(np.linalg.cholesky(ct))
                w = np.linalg.eigvalsh(low @ cs @ low.conj().T)
                lams.append(w[0])
                mus.append(w[-1])
        return max(min(lams), 0.0), max(mus)

    @pytest.mark.parametrize("alg_name", ["qubit", "qutrit", "two_blocks"])
    def test_sides_match_generalized_eigenvalues(self, alg_name, request):
        alg = request.getfixturevalue(alg_name)
        shrink = 1 - 64 * np.finfo(float).eps
        seen = set()
        for seed in range(6):
            s = random_faithful_map(alg, 60 + seed)
            if seed % 2:
                s = compose(s, transpose_map(alg))
            est = contraction_estimate(s, n_samples=8, refine_iters=0)
            lc, mc = self._sides(s, est.fixed_point, co=False)
            lt, mt = self._sides(s, est.fixed_point, co=True)
            lam, mu = est.sandwich
            assert lam == pytest.approx(max(lc, lt) * shrink, rel=1e-9, abs=1e-14)
            assert mu == pytest.approx(min(mc, mt) / shrink, rel=1e-9)
            if lam > 0 and abs(lc - lt) > 1e-9 and abs(mc - mt) > 1e-9:
                by_lam = "choi" if lc > lt else "co_choi"
                by_mu = "choi" if mc < mt else "co_choi"
                expected = by_lam if by_lam == by_mu else "mixed"
                assert est.upper_method == expected
                seen.add(expected)
        assert seen

    @staticmethod
    def _order_sides(s, x0):
        """Per Choi kind: (kind, m(C(s), C(T)), 1/m(C(T), C(s)), C(s) positive,
        the larger condition number of C(s) and C(T)), from the four order
        coefficients of ``hennion.m_quantity``."""
        from hennion_lab.algebra import AlgebraElement, TracialAlgebra, is_positive

        alg = s.algebra
        t = _reference_map(s, x0)
        dims = [ni * nj for ni in alg.block_dims for nj in alg.block_dims]
        pairs = TracialAlgebra(dims, [1.0] * len(dims))
        sides = []
        for kind, co in (("choi", False), ("co_choi", True)):
            cs = AlgebraElement(pairs, _choi_blocks(s, co))
            ct = AlgebraElement(pairs, _choi_blocks(t, co))
            tol = 64.0 * np.finfo(float).eps * norm(pairs, cs, "inf")
            nu = m_quantity(ct, cs).value
            ws, wt = (
                np.concatenate([np.linalg.eigvalsh(b) for b in c.hermitize().blocks])
                for c in (cs, ct)
            )
            cond = max(ws.max() / ws.min(), wt.max() / wt.min()) if ws.min() > 0 else np.inf
            sides.append(
                (kind, m_quantity(cs, ct).value, 1.0 / nu if nu > 0.0 else np.inf,
                 is_positive(pairs, cs, tol=tol).positive, cond)
            )
        return sides

    def test_pencil_matches_order_coefficients(self, monkeypatch):
        # with C(T) invertible, the extreme eigenvalues of one pencil per kind
        # give what the four order coefficients give, under the same back-off
        # (64 epsilons, lam 8 condition numbers when more) and tie rule (the
        # co-Choi kind takes a side only by over 64 epsilons), and m_quantity
        # never runs; both ways lose digits with the condition number
        maps = _certificate_maps()
        refs = [self._order_sides(s, perron_state(s)) for _, s in maps]

        def no_order_coefficients(*args, **kwargs):
            raise AssertionError("m_quantity called with C(T) invertible")

        monkeypatch.setattr(qmaps, "m_quantity", no_order_coefficients)
        eps = np.finfo(float).eps
        seen = set()
        for (name, s), sides in zip(maps, refs):
            lam, mu, method = _choi_sandwich(s, perron_state(s), DEFAULT_TOLS)
            lam_ref, mu_ref, lam_by, mu_by = 0.0, np.inf, None, None
            for kind, side_lam, side_mu, _, cond in sides:
                if side_lam > 0.0:
                    side_lam *= 1.0 - max(64.0, 8.0 * cond) * eps
                if side_lam > lam_ref * (1.0 + 64.0 * eps):
                    lam_ref, lam_by = side_lam, kind
                if side_mu < mu_ref * (1.0 - 64.0 * eps):
                    mu_ref, mu_by = side_mu, kind
            rel = max([1e-12] + [eps * side[4] for side in sides if side[1] > 0.0])
            assert lam == pytest.approx(lam_ref, rel=rel, abs=0.0), name
            assert mu == pytest.approx(mu_ref / (1.0 - 64.0 * eps), rel=rel), name
            expected = "none" if lam_ref == 0.0 else lam_by if lam_by == mu_by else "mixed"
            assert method == expected, name
            seen.add(expected)
        assert seen == {"choi", "co_choi", "mixed", "none"}

    def test_singular_choi_matrix_proves_no_lower_side(self, qutrit, rng):
        # Kraus rank 8 on M3: C(s) has a zero eigenvalue, so no lam > 0 has
        # C(s) >= lam*C(T), the pencil's bottom eigenvalue is roundoff of 0,
        # and neither kind certifies (nor did the order coefficients)
        for _ in range(6):
            g = rng.standard_normal((8, 3, 3)) + 1j * rng.standard_normal((8, 3, 3))
            w, v = np.linalg.eigh(sum(k.conj().T @ k for k in g))
            r = (v / np.sqrt(w)) @ v.conj().T
            s = from_kraus(qutrit, [qutrit.element([k @ r]) for k in g])
            lam, _, method = _choi_sandwich(s, perron_state(s), DEFAULT_TOLS)
            assert (lam, method) == (0.0, "none")
            assert [side[1] for side in self._order_sides(s, perron_state(s))] == [0.0, 0.0]

    @pytest.mark.parametrize("dims", [[2], [2, 2]])
    def test_singular_reference_takes_order_coefficients(self, dims, rng, monkeypatch):
        # replacement onto a pure state: the Perron state is that pure state,
        # so C(T) is singular and the order coefficients decide, bit for bit
        alg = make_algebra(dims, [1.0] * len(dims))
        s = replacement_channel(alg, random_state(alg, "pure", rng))
        x0 = perron_state(s)
        sides = self._order_sides(s, x0)
        calls = []
        monkeypatch.setattr(
            qmaps, "m_quantity", lambda *a, **k: calls.append(1) or m_quantity(*a, **k)
        )
        lam, mu, method = _choi_sandwich(s, x0, DEFAULT_TOLS)
        assert len(calls) == 4
        shrink = 1.0 - 64.0 * float(np.finfo(float).eps)
        best_lam, best_mu, lam_by, mu_by = 0.0, np.inf, None, None
        for kind, side_lam, side_mu, positive, _ in sides:
            if positive and side_lam > best_lam / shrink:
                best_lam, lam_by = side_lam, kind
            if positive and side_mu < best_mu * shrink:
                best_mu, mu_by = side_mu, kind
        assert (lam, mu) == (best_lam * shrink, best_mu / shrink)
        assert method == (lam_by if lam_by == mu_by else "mixed") == "choi"

    def test_sandwich_sound_in_extended_precision(self):
        # C(s) - lam*C(T) and mu*C(T) - C(s), rebuilt from the float Choi
        # blocks, are positive semidefinite for one kind each, in 60 digits;
        # lam = 0 claims nothing (a float C(s) may be -1e-16 indefinite)
        from mpmath import mp

        def min_eig(d):
            return min(mp.eighe((d + d.H) / 2, eigvals_only=True))

        with mp.workdps(60):
            for name, s in _certificate_maps():
                cert = certified_upper(s)
                lam, mu = (mp.mpf(v) for v in cert.sandwich)
                t = _reference_map(s, cert.fixed_point)
                low, up = [], []
                for co in (False, True):
                    pairs = [
                        (mp.matrix(cs.tolist()), mp.matrix(ct.tolist()))
                        for cs, ct in zip(_choi_blocks(s, co), _choi_blocks(t, co))
                    ]
                    low.append(min(min_eig(cs - lam * ct) for cs, ct in pairs))
                    up.append(min(min_eig(mu * ct - cs) for cs, ct in pairs))
                assert (lam == 0 or max(low) >= 0) and max(up) >= 0, (name, low, up)

    def test_replacement_ties_to_choi(self, qubit, rng):
        s = replacement_channel(qubit, random_state(qubit, "full", rng))
        est = contraction_estimate(s, n_samples=8, refine_iters=0, rng=rng)
        assert est.upper_bound <= 1e-12
        assert est.upper_method == "choi"

    def test_singular_fixed_point(self, rng):
        # half a block transpose plus a replacement into the first block: the
        # fixed point misses the second block, so C(T) is singular and only
        # the co-Choi side, whose matrix is positive, may be used
        alg = make_algebra([2, 2], [1.0, 1.0])
        rho = random_state(alg, "full", rng).element.blocks[0]
        rho = alg.element([rho, np.zeros((2, 2))])
        rho = rho * (1.0 / trace(alg, rho).real)
        mat = np.stack(
            [
                alg.coefficients(
                    0.5 * alg.element([x.blocks[0].T, np.zeros((2, 2))])
                    + 0.5 * trace(alg, x) * rho
                )
                for x in (alg.basis_element(k) for k in range(alg.dim))
            ],
            axis=1,
        )
        s = SuperOperator(alg, mat, MapFlags(positive="yes", faithful="yes"))
        est = contraction_estimate(s, n_samples=16, refine_iters=4, rng=rng)
        assert not est.fixed_point.is_invertible
        assert est.upper_method == "co_choi"
        assert est.lower_bound <= est.upper_bound < 1
        lam, mu = est.sandwich
        x0 = est.fixed_point.element
        for _ in range(500):
            y = projective_action(s, random_state(alg, "pure", rng)).element
            for yb, xb in zip(y.blocks, x0.blocks):
                assert np.linalg.eigvalsh(yb - lam * xb)[0] >= -1e-12
                assert np.linalg.eigvalsh(mu * xb - yb)[0] >= -1e-12

    def test_no_fixed_point_means_no_certificate(self, qubit, rng):
        est = contraction_estimate(transpose_map(qubit), n_samples=8, refine_iters=0, rng=rng)
        assert est.fixed_point is None
        assert est.sandwich is None and est.upper_method == "none" and est.eta == 0.0


def _loop_upper(s, max_iter=5000, tol=1e-12):
    """Reference certificate at the fixed point found by iteration: x0 is
    iterated from the maximally mixed state until a step moves it by at most
    ``tol`` in trace norm, and None when ``max_iter`` steps do not get there."""
    alg = s.algebra
    x = alg.maximally_mixed()
    for _ in range(max_iter):
        nxt = projective_action(s, x)
        moved = norm(alg, nxt.element - x.element, "one")
        x = nxt
        if moved <= tol:
            break
    else:
        return None
    lam, mu, method = _choi_sandwich(s, x, DEFAULT_TOLS)
    if method == "none":
        return 1.0
    r2 = (lam / mu) ** 2
    return (1.0 - r2) / (1.0 + r2)


class TestPerronState:
    def test_slow_rotation_is_certified(self, qubit):
        # a rotation mixed with a little replacement: iterating the
        # projective action gains only a factor 1 - eps per step, so
        # _loop_upper finds no fixed point within 5000 steps
        eps, th = 2e-3, 1.0
        u = np.array([[np.cos(th / 2), -np.sin(th / 2)], [np.sin(th / 2), np.cos(th / 2)]])
        rot = from_kraus(qubit, [qubit.element([u])])
        rep = replacement_channel(qubit, State.from_element(qubit.element([np.diag([1.6, 0.4])])))
        s = SuperOperator(
            qubit,
            (1.0 - eps) * rot.matrix + eps * rep.matrix,
            MapFlags(positive="yes", faithful="yes"),
        )
        est = contraction_estimate(s, n_samples=8, refine_iters=0)
        assert est.upper_bound < 1.0 and est.upper_method != "none"
        assert est.lower_bound <= est.upper_bound
        assert est.fixed_point_converged and not est.convergence_error

    @pytest.mark.parametrize("alg_name", ["qubit", "qutrit", "two_blocks"])
    def test_matches_fixed_point_iteration(self, alg_name, request):
        from hennion_lab.process import ChannelEnsemble

        alg = request.getfixturevalue(alg_name)
        ens = ChannelEnsemble.random_kraus(alg, k=3, mix_eps=0.3)
        for length in (1, 2, 5, 12, 25, 30):
            s = ens.channel_at(100 * length)
            for k in range(1, length):
                s = compose(ens.channel_at(100 * length + k), s)
            x0 = perron_state(s)
            assert x0 is not None
            resid = norm(alg, projective_action(s, x0).element - x0.element, "one")
            assert resid <= 1e-12
            assert abs(certified_upper(s).upper_bound - _loop_upper(s)) <= 1e-12

    def test_no_state_no_certificate(self, qubit):
        # the top eigenvector is the traceless off-diagonal basis element,
        # which is no multiple of a state: the sound no-certificate default
        s = SuperOperator(qubit, np.diag([1.0, 1.0, 2.0, 0.5]))
        assert perron_state(s) is None
        assert certified_upper(s) == qmaps.UpperCertificate()


class TestIrreducibility:
    def test_dephasing_reducible(self, qubit):
        verdict = irreducibility_probe(dephasing_map(qubit))
        assert verdict.kind == "reducible"
        assert verdict.scale == pytest.approx(1.0, abs=1e-9)

    def test_block_decoupled_reducible(self, two_blocks, rng):
        # blockwise unitary mixing never couples the two summands
        s = mixed_unitary_channel(two_blocks, rng)
        verdict = irreducibility_probe(s)
        assert verdict.kind == "reducible"
        tr = trace(two_blocks, verdict.witness).real
        assert 0.0 < tr < 1.0

    def test_certified_contraction_irreducible(self, qubit):
        s = random_faithful_map(qubit, 44)
        est = contraction_estimate(s, n_samples=8, refine_iters=0)
        assert is_strict_contraction(s, est) == "certified_yes"
        assert est.fixed_point.is_invertible
        assert irreducibility_probe(s).kind == "no_invariant_projection_found"


class TestUnitalize:
    def _subrepair_case(self, alg, rng, scale=0.6):
        base = mixed_unitary_channel(alg, rng)
        from hennion_lab.qmaps import SuperOperator

        s = SuperOperator(alg, scale * base.matrix)
        return validate_flags(s)

    def test_repair_is_unital_tracial(self, qubit, rng):
        s = self._subrepair_case(qubit, rng)
        fixed = unitalize(s)
        assert fixed.flags.unital == "yes"
        assert fixed.flags.tracial == "yes"

    def test_repair_never_expands(self, qubit, rng):
        # scaled strict contraction: the repaired map contracts at least as well
        base = random_faithful_map(qubit, 45)
        from hennion_lab.qmaps import SuperOperator

        s = validate_flags(SuperOperator(qubit, 0.5 * base.matrix))
        fixed = unitalize(s)
        e_orig = contraction_estimate(base, n_samples=24, refine_iters=8, rng=rng)
        e_fix = contraction_estimate(fixed, n_samples=24, refine_iters=8, rng=rng)
        assert e_fix.lower_bound <= e_orig.upper_bound + 1e-2

    def test_rejects_super_unital(self, qubit):
        s = validate_flags(
            from_matrix(qubit, 2.0 * np.eye(4), n_probe=0)
        )
        with pytest.raises(RejectedInputError):
            unitalize(s)


def _stack(states):
    alg = states[0].algebra
    return [np.stack([x.blocks[b] for x in states]) for b in range(alg.n_blocks)]


def _gaussian_kraus_map(alg, seed, k=3):
    rng = np.random.default_rng(seed)
    ops = [
        alg.element(
            [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in alg.block_dims]
        )
        for _ in range(k)
    ]
    return from_kraus(alg, ops)


class TestStackedKernels:
    ALGEBRAS = ["qubit", "qutrit", "two_blocks"]

    @pytest.mark.parametrize("alg_name", ALGEBRAS)
    @pytest.mark.parametrize("kind", ["full", "pure", "boundary"])
    def test_action_matches_scalar(self, alg_name, kind, request, rng):
        from hennion_lab.hennion import hennion_distance_many

        alg = request.getfixturevalue(alg_name)
        s = random_faithful_map(alg, 7)
        xs = [random_state(alg, kind, rng) for _ in range(12)]
        ys = [random_state(alg, "pure", rng) for _ in range(12)]
        images_x = projective_action_many(s, _stack(xs))
        images_y = projective_action_many(s, _stack(ys))
        d, singular = hennion_distance_many(alg, images_x, images_y)
        assert singular == 0  # the replacement part makes every image invertible
        for k, (x, y) in enumerate(zip(xs, ys)):
            sx, sy = projective_action(s, x), projective_action(s, y)
            for b in range(alg.n_blocks):
                assert np.max(np.abs(images_x[b][k] - sx.blocks[b])) <= 1e-12
            assert abs(d[k] - hennion_distance(sx, sy)) <= 1e-12

    @pytest.mark.parametrize("alg_name", ALGEBRAS)
    @pytest.mark.parametrize("build", [identity_map, dephasing_map, transpose_map])
    def test_singular_images_take_counted_fallback(self, alg_name, build, request, rng):
        from hennion_lab.hennion import hennion_distance_many

        alg = request.getfixturevalue(alg_name)
        s = build(alg)
        # the identity and transpose keep pure states pure, dephasing keeps
        # the axis states pure
        axis = alg.element([np.diag([1.0] + [0.0] * (n - 1)) for n in alg.block_dims])
        xs = [random_state(alg, "pure", rng) for _ in range(5)]
        xs.append(State.from_element(axis * (1.0 / trace(alg, axis).real)))
        ys = [random_state(alg, "full", rng) for _ in range(6)]
        images_x = projective_action_many(s, _stack(xs))
        images_y = projective_action_many(s, _stack(ys))
        d, singular = hennion_distance_many(alg, images_x, images_y)
        expected = sum(
            not projective_action(s, x).is_invertible or not projective_action(s, y).is_invertible
            for x, y in zip(xs, ys)
        )
        assert expected > 0
        assert singular == expected
        for k, (x, y) in enumerate(zip(xs, ys)):
            want = hennion_distance(projective_action(s, x), projective_action(s, y))
            assert abs(d[k] - want) <= 1e-12

    def test_kernel_state_raises_like_scalar(self, qubit, rng):
        s = from_kraus(qubit, [qubit.element([np.diag([1.0, 0.0])])])
        bad = State.from_element(qubit.element([np.diag([0.0, 2.0])]))
        good = random_state(qubit, "full", rng)
        with pytest.raises(KernelStateError):
            projective_action(s, bad)
        with pytest.raises(KernelStateError):
            projective_action_many(s, _stack([good, bad]))

    def test_non_hermitian_image_raises_like_scalar(self, qubit, rng):
        # put an imaginary multiple of an off-diagonal basis element in the
        # image: the trace stays real, the image is not Hermitian
        mat = np.eye(qubit.dim, dtype=complex)
        mat[2, 0] = 0.5j
        s = SuperOperator(qubit, mat)
        x = random_state(qubit, "full", rng)
        with pytest.raises(RejectedInputError, match="not Hermitian"):
            projective_action(s, x)
        with pytest.raises(RejectedInputError, match="not Hermitian"):
            projective_action_many(s, _stack([x, x]))

    def test_non_hermitian_distance_input_raises_like_scalar(self, qubit, rng):
        from hennion_lab.hennion import hennion_distance_many

        x = random_state(qubit, "full", rng)
        skew = qubit.element([x.blocks[0] + np.array([[0.0, 0.1], [0.0, 0.0]])])
        with pytest.raises(RejectedInputError, match="not Hermitian"):
            hennion_distance(skew, x)
        stack = [np.stack([skew.blocks[0]])]
        with pytest.raises(RejectedInputError, match="not Hermitian"):
            hennion_distance_many(qubit, stack, _stack([x]))

    def test_estimate_counts_singular_pairs(self, qubit, rng):
        est = contraction_estimate(identity_map(qubit), n_samples=8, refine_iters=0, rng=rng)
        assert est.lower_bound == 1.0
        assert est.singular_pairs > 0
        est = contraction_estimate(
            depolarizing_channel(qubit, 0.5), n_samples=8, refine_iters=2, rng=rng
        )
        assert est.singular_pairs == 0


class TestPinnedLowerBounds:
    """Lower bounds of the pair-by-pair search that the stacked search replaced."""

    PINNED = {
        "dep_m2": (0.8000000000000003, 0.8, 0.8),
        "dep_dep_m2": (0.38461538461538564, 0.38461538461538475, 0.38461538461538475),
        "dep_transpose_m2": (0.8000000000000003, 0.8, 0.8),
        "kraus_m2": (0.9950305535162474, 0.9871713267381169, 0.9950305498398742),
        "kraus2_m2": (0.5145715952908209, 0.43281354843391173, 0.5145715952908128),
        "kraus_m3": (1.0, 0.999342935353311, 1.0),
        "dep_m3": (0.9692307692307692, 0.9692307692307692, 0.9692307692307692),
        "mix_m2": (0.7899385095340494, 0.7522728744716025, 0.7899385057740869),
        "mix2_m2": (0.49132139442745654, 0.37468199907795724, 0.49132139442728456),
        "mix_m3": (0.9445586217116717, 0.9300912476977619, 0.9445551193125812),
        "mix_m22": (0.9861688110015038, 0.982559095146417, 0.9861688110015036),
        "mix2_m22": (0.8746901223973491, 0.8673733639878166, 0.8746901223973302),
    }
    OPTIONS = [(10, 4, True), (8, 0, False), (24, 12, False)]

    @staticmethod
    def maps():
        m2 = make_algebra([2], [1.0])
        m3 = make_algebra([3], [1.0])
        m22 = make_algebra([2, 2], [1.0, 2.0])
        return {
            "dep_m2": depolarizing_channel(m2, 0.5),
            "dep_dep_m2": compose(depolarizing_channel(m2, 0.5), depolarizing_channel(m2, 0.6)),
            "dep_transpose_m2": compose(depolarizing_channel(m2, 0.5), transpose_map(m2)),
            "kraus_m2": _gaussian_kraus_map(m2, 1),
            "kraus2_m2": compose(_gaussian_kraus_map(m2, 4), _gaussian_kraus_map(m2, 5)),
            "kraus_m3": _gaussian_kraus_map(m3, 2),
            "dep_m3": depolarizing_channel(m3, 0.3),
            "mix_m2": random_faithful_map(m2, 0),
            "mix2_m2": compose(random_faithful_map(m2, 1), random_faithful_map(m2, 2)),
            "mix_m3": random_faithful_map(m3, 3),
            "mix_m22": random_faithful_map(m22, 4),
            "mix2_m22": compose(random_faithful_map(m22, 5), random_faithful_map(m22, 6)),
        }

    @pytest.mark.parametrize("option", range(3))
    def test_lower_bounds_unchanged(self, option):
        n_samples, refine_iters, polish = self.OPTIONS[option]
        for name, s in self.maps().items():
            est = contraction_estimate(
                s,
                n_samples=n_samples,
                refine_iters=refine_iters,
                polish=polish,
                rng=np.random.default_rng(11),
            )
            assert est.lower_bound == pytest.approx(self.PINNED[name][option], abs=1e-9), name

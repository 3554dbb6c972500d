import itertools
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from hennion_lab import (
    fcs,
    process,
    qmaps,
    make_algebra,
    norm,
    random_state,
    tensor_algebra,
    tensor_element,
    trace,
)
from hennion_lab.config import DEFAULT_TOLS
from hennion_lab.errors import RejectedInputError
from hennion_lab.fcs import (
    LocalObservable,
    birkhoff_average,
    bond_process_ensemble,
    clustering_experiment,
    iterate_generator,
    product_generator,
    psi_of_parts,
    psi_value,
    random_unital_generator,
    translation_covariance_check,
)
from hennion_lab.fcs import _flank_evolution
from hennion_lab.process import EstimatorOptions, ErgodicDriver, derive_seed, parameter_seed
from hennion_lab.qmaps import (
    MapFlags,
    SuperOperator,
    certified_upper,
    contraction_estimate,
    predual,
)


@pytest.fixture
def site():
    return make_algebra([2], [1.0])


@pytest.fixture
def bond():
    return make_algebra([2], [1.0])


@pytest.fixture
def rand_gen(site, bond):
    return random_unital_generator(site, bond, kraus_rank=3)


@pytest.fixture
def iid():
    return ErgodicDriver("iid_shift", master_seed=4242)


def pauli(site, which):
    mats = {
        "z": np.diag([1.0, -1.0]),
        "x": np.array([[0.0, 1.0], [1.0, 0.0]]),
    }
    return site.element([mats[which]])


def random_matrix(rng, n, hermitian=False):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2 if hermitian else g


def random_element(alg, rng, hermitian=False):
    return alg.element([random_matrix(rng, n, hermitian) for n in alg.block_dims])


def dense(site, x, length=1):
    """x in the length-fold power as one matrix on the Kronecker power of
    the site's block-diagonal space."""
    offs = np.cumsum([0, *site.block_dims])
    out = np.zeros((offs[-1] ** length,) * 2, dtype=complex)
    tuples = itertools.product(range(site.n_blocks), repeat=length)
    for idx, blk in zip(tuples, x.blocks):
        rows = reduce(
            lambda r, i: (r[:, None] * offs[-1] + np.arange(offs[i], offs[i + 1])).ravel(),
            idx,
            np.zeros(1, dtype=int),
        )
        out[np.ix_(rows, rows)] = blk
    return out


def reference_coefficients(site, x_dense, length):
    """tau(b_{a_1} (x) ... (x) b_{a_L} x) by numpy traces, first site major."""
    w = np.diag(np.repeat(site.trace_weights, site.block_dims))
    units = [w @ dense(site, site.basis_element(a)) for a in range(site.dim)]
    return np.array(
        [
            np.sum(reduce(np.kron, factors) * x_dense.T)  # Tr(k x)
            for factors in itertools.product(units, repeat=length)
        ]
    )


SITES = {
    "M2": ([2], [1.0]),
    "M3": ([3], [1.0]),
    "M2+M1": ([2, 1], [1.0, 2.0]),
}


class TestLocalObservable:
    def test_single_site(self, site):
        obs = LocalObservable.from_sites(site, 3, [pauli(site, "z")])
        assert obs.support == (3, 3)
        assert obs.norm_inf == pytest.approx(1.0)

    def test_product_embedding_preserves_norm(self, site):
        a = LocalObservable.from_sites(site, 0, [pauli(site, "z"), pauli(site, "x")])
        assert a.norm_inf == pytest.approx(1.0)
        assert a.length == 2

    def test_shift(self, site):
        obs = LocalObservable.from_sites(site, 0, [pauli(site, "z")])
        assert obs.shifted(5).support == (5, 5)
        assert np.array_equal(obs.shifted(5).coeff_tensor, obs.coeff_tensor)

    def test_bases_follow_the_algebra_value(self):
        # coefficients must follow each new algebra's value: a basis cache
        # keyed on id() once served a collected algebra's basis to a new one
        rng = np.random.default_rng(21)
        for k in range(400):
            alg = make_algebra([2 + k % 2], [1.0])
            f, g = random_element(alg, rng), random_element(alg, rng)
            x = random_element(tensor_algebra(alg, alg), rng)
            prod = LocalObservable.from_sites(alg, 0, [f, g])
            obs = LocalObservable.from_element(alg, (0, 1), x)
            ref_fg = reference_coefficients(alg, np.kron(dense(alg, f), dense(alg, g)), 2)
            ref_x = reference_coefficients(alg, dense(alg, x, 2), 2)
            assert np.allclose(prod.coeff_tensor, ref_fg, rtol=0, atol=1e-13)
            assert np.allclose(obs.coeff_tensor, ref_x, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("name", sorted(SITES))
    def test_from_sites_matches_dense_reference(self, name):
        site = make_algebra(*SITES[name])
        rng = np.random.default_rng(7)
        for length in range(1, 5):
            if site.dim**length > 4096:
                continue
            # not Hermitian, so a transposed contraction cannot hide
            factors = [random_element(site, rng) for _ in range(length)]
            obs = LocalObservable.from_sites(site, 2, factors)
            x = reduce(np.kron, [dense(site, f) for f in factors])
            ref = reference_coefficients(site, x, length)
            assert obs.coeff_tensor.shape == (site.dim**length,)
            assert np.allclose(obs.coeff_tensor, ref, rtol=0, atol=1e-13)
            assert obs.norm_inf == pytest.approx(np.linalg.norm(x, 2), rel=1e-13)

    @pytest.mark.parametrize(
        "name,length,hermitian",
        [("M2", 3, True), ("M2", 3, False), ("M2+M1", 2, True), ("M2+M1", 2, False)],
    )
    def test_from_element_matches_dense_reference(self, name, length, hermitian):
        site = make_algebra(*SITES[name])
        power = reduce(lambda p, _: tensor_algebra(p, site), range(length - 1), site)
        x = random_element(power, np.random.default_rng(8), hermitian)
        obs = LocalObservable.from_element(site, (0, length - 1), x)
        x_dense = dense(site, x, length)
        ref = reference_coefficients(site, x_dense, length)
        assert np.allclose(obs.coeff_tensor, ref, rtol=0, atol=1e-13)
        assert obs.norm_inf == pytest.approx(np.linalg.norm(x_dense, 2), rel=1e-13)

    def test_from_element_swap(self, site):
        swap = np.eye(4)[[0, 2, 1, 3]]
        x = tensor_algebra(site, site).element([swap])
        obs = LocalObservable.from_element(site, (0, 1), x)
        ref = reference_coefficients(site, swap, 2)
        assert np.allclose(obs.coeff_tensor, ref, rtol=0, atol=1e-13)
        assert obs.norm_inf == pytest.approx(1.0, rel=1e-13)

    def test_product_construction_builds_no_power(self, site, monkeypatch):
        def refuse(*args):
            raise AssertionError("a product observable built a tensor power")

        monkeypatch.setattr(fcs, "tensor_algebra", refuse)
        obs = LocalObservable.from_sites(site, 0, [pauli(site, "z")] * 6)
        assert obs.coeff_tensor.shape == (4096,)
        assert obs.norm_inf == pytest.approx(1.0)

    def test_budget_guard(self, site):
        with pytest.raises(RejectedInputError):
            LocalObservable.from_sites(site, 0, [site.identity()] * 8)


class TestGeneratorValidation:
    def test_product_generator_valid(self, site, bond):
        gen = product_generator(site, bond)
        gen.validate(0, n_probe=16)

    def test_random_generator_unital(self, rand_gen, iid):
        for n in range(3):
            p = iid.point_at(n)
            one = rand_gen.apply_e(p, rand_gen.on_site.identity(), rand_gen.bond.identity())
            assert norm(rand_gen.bond, one - rand_gen.bond.identity(), "inf") <= 1e-10

    def test_induced_map_consistency(self, rand_gen, iid):
        rand_gen.validate(iid.point_at(0), n_probe=8)

    def test_induced_predual_is_tracial_channel(self, rand_gen, iid):
        ens = bond_process_ensemble(rand_gen)
        ch = ens.channel_at(iid.point_at(2))
        bond = rand_gen.bond
        x = random_state(bond, "full", np.random.default_rng(3))
        out = ch.apply(x.element)
        assert trace(bond, out).real == pytest.approx(1.0, abs=1e-12)

    def test_bond_channel_is_predual_of_induced_map(self, rand_gen, iid):
        p = iid.point_at(2)
        ch = bond_process_ensemble(rand_gen).channel_at(p)
        ref = predual(rand_gen.induced_phi(p))
        assert np.array_equal(ch.matrix, ref.matrix)
        assert ch.flags == ref.flags

    def test_random_generator_pair_basis(self, site):
        # the generator matrices are bit-identical to a build whose pair
        # basis comes from tensor_element on the pair algebra
        bond = make_algebra([3], [1.0])
        gen = random_unital_generator(site, bond, kraus_rank=2)
        pair = tensor_algebra(site, bond)
        pair_mats = [
            tensor_element(pair, site.basis_element(a), bond.basis_element(g)).blocks[0]
            for a in range(site.dim)
            for g in range(bond.dim)
        ]
        for parameter in (0, 7, 123):
            rng = np.random.default_rng(parameter_seed(parameter))
            for _ in range(64):
                kraus = [
                    rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
                    for _ in range(2)
                ]
                w, u = np.linalg.eigh(sum(v @ v.conj().T for v in kraus))
                if w[0] > 1e-8 * w[-1]:
                    break
            inv_half = (u / np.sqrt(w)) @ u.conj().T
            cols = [
                bond.coefficients(
                    bond.element([inv_half @ sum(v @ z @ v.conj().T for v in kraus) @ inv_half])
                )
                for z in pair_mats
            ]
            assert np.array_equal(gen.map_at(parameter), np.stack(cols, axis=1))

    def test_multiblock_random_generator_rejected(self, site):
        with pytest.raises(RejectedInputError):
            random_unital_generator(make_algebra([2, 2], [1, 1]), site)


class TestIteration:
    def test_unitality_telescope(self, rand_gen, iid):
        obs = LocalObservable.from_sites(
            rand_gen.on_site, -2, [rand_gen.on_site.identity()] * 3
        )
        out = iterate_generator(rand_gen, iid, (-5, 5), obs)
        gap = norm(rand_gen.bond, out - rand_gen.bond.identity(), "inf")
        assert gap <= 1e-10 * 11

    def test_product_observable_matches_nested(self, rand_gen, iid, site):
        factors = [pauli(site, "z"), pauli(site, "x")]
        obs = LocalObservable.from_sites(site, 1, factors)
        via_core = iterate_generator(rand_gen, iid, (1, 2), obs)
        w = rand_gen.bond.identity()
        for k, f in reversed(list(enumerate(factors))):
            w = rand_gen.apply_e(iid.point_at(1 + k), f, w)
        assert norm(rand_gen.bond, via_core - w, "inf") <= 1e-10

    def test_factorization_identity(self, rand_gen, iid, site):
        # evaluating with explicit identity padding equals collapsing the
        # pad into the induced bond maps
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(100):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            x = site.element([(g + g.conj().T) / 2])
            obs = LocalObservable.from_sites(site, 1, [x])
            lhs = iterate_generator(rand_gen, iid, (-2, 3), obs)
            padded = LocalObservable.from_sites(
                site,
                -2,
                [site.identity()] * 3 + [x] + [site.identity()] * 2,
            )
            rhs = iterate_generator(rand_gen, iid, (-2, 3), padded)
            worst = max(worst, norm(rand_gen.bond, lhs - rhs, "inf"))
        assert worst <= 1e-9

    def test_support_outside_window_rejected(self, rand_gen, iid, site):
        obs = LocalObservable.from_sites(site, 5, [pauli(site, "z")])
        with pytest.raises(RejectedInputError):
            iterate_generator(rand_gen, iid, (0, 4), obs)


class TestPsiValue:
    def test_product_generator_factorizes(self, site, bond):
        gen = product_generator(site, bond)
        drv = ErgodicDriver("constant")
        a = site.element([np.diag([2.0, 0.0])])
        b = site.element([np.diag([0.0, 2.0])])
        obs = LocalObservable.from_sites(site, -1, [a, b])
        est = psi_value(gen, drv, obs, window=6)
        expected = trace(site, a).real * trace(site, b).real
        assert est.value == pytest.approx(expected, abs=1e-12)

    def test_unit_observable(self, rand_gen, iid, site):
        obs = LocalObservable.from_sites(site, 0, [site.identity()])
        est = psi_value(rand_gen, iid, obs, window=8)
        assert est.value == pytest.approx(1.0, abs=1e-10)

    def test_state_contract(self, rand_gen, iid, site):
        # values are unital, positive on positives, norm-bounded; the flank
        # at the shared support site is evolved once and reused so a
        # thousand observables stay cheap
        from hennion_lab.fcs import _core_eval

        z = _flank_evolution(rand_gen, iid, -12, 0, DEFAULT_TOLS)[0]
        rng = np.random.default_rng(12)
        for _ in range(1000):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            h = (g + g.conj().T) / 2
            obs = LocalObservable.from_sites(site, 0, [site.element([h])])
            tail = rand_gen.bond.coefficients(rand_gen.bond.identity())
            w = _core_eval(rand_gen, iid, obs, tail)
            val = complex(np.dot(w, z))
            assert abs(val) <= obs.norm_inf + 1e-9
            psd_obs = LocalObservable.from_sites(site, 0, [site.element([h @ h.conj().T])])
            w2 = _core_eval(rand_gen, iid, psd_obs, tail)
            assert complex(np.dot(w2, z)).real >= -1e-10

    def test_monotone_truncation(self, rand_gen, iid, site):
        obs = LocalObservable.from_sites(site, 0, [pauli(site, "z")])
        prev = psi_value(rand_gen, iid, obs, window=8)
        for window in (16, 32):
            cur = psi_value(rand_gen, iid, obs, window=window)
            assert abs(cur.value - prev.value) <= prev.truncation_bound + 1e-12
            prev = cur

    def test_z_state_is_flank_limit(self, rand_gen, iid, site):
        obs = LocalObservable.from_sites(site, 0, [pauli(site, "z")])
        est = psi_value(rand_gen, iid, obs, window=25)
        assert est.flank_upper <= 1e-6
        assert not est.widen_advisory

    def test_disjoint_parts_required(self, rand_gen, iid, site):
        a = LocalObservable.from_sites(site, 0, [pauli(site, "z")])
        b = LocalObservable.from_sites(site, 0, [pauli(site, "x")])
        with pytest.raises(RejectedInputError):
            psi_of_parts(rand_gen, iid, [a, b], window=8)


def _parent_flank_evolution(generator, driver, start, stop_before, est_opts, est_seed, stride):
    """The flank loop before certificates: the minimum over checkpoints (every
    ``stride`` sites and at the end) of a full contraction_estimate's
    (clamped) upper bound, one rng per site."""
    bond = generator.bond
    c1 = bond.coefficients(bond.identity())
    z, flank, upper = c1, None, 1.0
    for steps, site in enumerate(range(start, stop_before), start=1):
        gamma_mat = generator.induced_phi(driver.point_at(site)).matrix.T
        z = gamma_mat @ z
        z = z / np.dot(c1, z).real
        flank = gamma_mat if flank is None else gamma_mat @ flank
        if steps % stride == 0 or site == stop_before - 1:
            comp = SuperOperator(bond, flank, MapFlags(positive="yes", faithful="yes"))
            est = contraction_estimate(
                comp,
                rng=np.random.default_rng(derive_seed(est_seed, f"flank:{site}")),
                tols=DEFAULT_TOLS,
                **est_opts.call_kwargs(),
            )
            upper = min(upper, est.upper_bound)
    return z, upper


DRIVERS = {
    "iid_shift": ErgodicDriver("iid_shift", master_seed=4242),
    "cyclic": ErgodicDriver("cyclic", master_seed=77, period=3),
    "rotation": ErgodicDriver("rotation", alpha=(np.sqrt(5) - 1) / 2, omega0=0.3),
    "constant": ErgodicDriver("constant"),
}


class TestFlankCertificates:
    @pytest.mark.parametrize("kraus_rank", [2, 3])
    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    @pytest.mark.parametrize("stride", [1, 5])
    @pytest.mark.parametrize("window", [6, 12])
    def test_matches_search_based_flank(self, site, bond, kraus_rank, driver, stride, window):
        # the full flank's certificate alone equals the minimum over the
        # reference's prefix checkpoints: no prefix is tighter
        gen = random_unital_generator(site, bond, kraus_rank=kraus_rank)
        opts = EstimatorOptions(n_samples=8, refine_iters=0)
        z_ref, upper_ref = _parent_flank_evolution(
            gen, DRIVERS[driver], -window, 0, opts, 11, stride
        )
        z, upper, computed, reused = _flank_evolution(
            gen, DRIVERS[driver], -window, 0, DEFAULT_TOLS
        )
        assert np.array_equal(z, z_ref)
        assert upper == upper_ref
        assert (computed, reused) == (1, 0)

    def test_estimator_arguments_ignored(self, rand_gen, iid, site):
        obs = LocalObservable.from_sites(site, -1, [pauli(site, "z"), pauli(site, "x")])
        a = psi_value(rand_gen, iid, obs, window=10, est_seed=1)
        b = psi_value(
            random_unital_generator(site, rand_gen.bond, kraus_rank=3),
            iid,
            obs,
            window=10,
            est_opts=EstimatorOptions(n_samples=20, refine_iters=5),
            est_seed=987,
        )
        assert a.value == b.value and a.truncation_bound == b.truncation_bound

    def test_generators_share_no_entries(self, site, bond, iid):
        obs = LocalObservable.from_sites(site, 0, [pauli(site, "z")])
        first = random_unital_generator(site, bond, kraus_rank=3)
        other = random_unital_generator(site, bond, kraus_rank=2)
        psi_value(first, iid, obs, window=12)
        est = psi_value(other, iid, obs, window=12)
        assert est.flank_certificates == 1 and est.flank_certificates_reused == 0
        fresh = psi_value(random_unital_generator(site, bond, kraus_rank=2), iid, obs, window=12)
        assert est.flank_upper == fresh.flank_upper

    def test_tolerances_are_part_of_the_key(self, rand_gen, iid, site):
        obs = LocalObservable.from_sites(site, 0, [pauli(site, "z")])
        psi_value(rand_gen, iid, obs, window=12)
        tols = replace(DEFAULT_TOLS, cert_margin=1e-11)
        est = psi_value(rand_gen, iid, obs, window=12, tols=tols)
        assert (est.flank_certificates, est.flank_certificates_reused) == (1, 0)
        again = psi_value(rand_gen, iid, obs, window=12, tols=tols)
        assert (again.flank_certificates, again.flank_certificates_reused) == (0, 1)

    def test_shifted_driver_reuses_shared_points(self, rand_gen, iid, site):
        # the flank of the shifted driver at window 14 starts at the same
        # point as the unshifted one at window 12 and runs two sites longer;
        # moving the observable two sites left makes the two flanks equal
        obs = LocalObservable.from_sites(site, 0, [pauli(site, "z")])
        psi_value(rand_gen, iid, obs, window=12)
        est = psi_value(rand_gen, iid.shift(2), obs, window=14)
        assert (est.flank_certificates, est.flank_certificates_reused) == (1, 0)
        same = psi_value(rand_gen, iid.shift(2), obs.shifted(-2), window=14)
        assert (same.flank_certificates, same.flank_certificates_reused) == (0, 1)

    def test_cached_value_is_bit_equal_to_fresh(self, rand_gen, iid, site):
        a = LocalObservable.from_sites(site, 0, [pauli(site, "z")])
        b = LocalObservable.from_sites(site, 3, [pauli(site, "x")])
        psi_value(rand_gen, iid, a, window=12)
        warm = psi_of_parts(rand_gen, iid, [a, b], window=12)
        fresh = psi_of_parts(
            random_unital_generator(site, rand_gen.bond, kraus_rank=3), iid, [a, b], window=12
        )
        assert warm.flank_certificates == 0 and warm.flank_certificates_reused == 1
        assert fresh.flank_certificates == 1 and fresh.flank_certificates_reused == 0
        for field_name in ("value", "truncation_bound", "flank_upper", "widen_advisory"):
            assert getattr(warm, field_name) == getattr(fresh, field_name)
        assert np.array_equal(warm.z_state.element.blocks[0], fresh.z_state.element.blocks[0])

    def test_clustering_joint_values_reuse(self, site, bond, monkeypatch):
        calls = []

        def spy(generator, driver, parts, window, **kwargs):
            est = psi_of_parts(generator, driver, parts, window, **kwargs)
            calls.append((len(parts), est))
            return est

        monkeypatch.setattr(fcs, "psi_of_parts", spy)
        clustering_experiment(
            random_unital_generator(site, bond, kraus_rank=2),
            ErgodicDriver("iid_shift", master_seed=99),
            LocalObservable.from_sites(site, 0, [pauli(site, "z"), pauli(site, "x")]),
            LocalObservable.from_sites(site, 0, [pauli(site, "x")]),
            gaps=[1, 2, 3],
            window=12,
        )
        joint = [est for n, est in calls if n == 2]
        assert len(joint) == 3
        for est in joint:
            assert est.flank_certificates == 0 and est.flank_certificates_reused > 0

    def test_product_generator_flank_does_not_contract(self, site, bond, iid):
        gen = product_generator(site, bond)
        a = site.element([np.diag([2.0, -0.5])])
        est = psi_value(gen, iid, LocalObservable.from_sites(site, 0, [a]), window=8)
        assert est.flank_upper == 1.0
        assert est.truncation_bound == 8.0 * norm(site, a, "inf")
        cert = certified_upper(gen.induced_phi(iid.point_at(0)))
        assert cert.method == "none" and cert.upper_bound == 1.0
        assert cert.sandwich is not None and cert.sandwich[0] == 0.0


class TestCovariance:
    def test_zero_shift(self, rand_gen, iid, site):
        obs = LocalObservable.from_sites(site, 0, [pauli(site, "z")])
        dev, _ = translation_covariance_check(rand_gen, iid, obs, 0, window=10)
        assert dev <= 1e-14

    def test_product_generator_index_free(self, site, bond, iid):
        gen = product_generator(site, bond)
        obs = LocalObservable.from_sites(site, 0, [pauli(site, "z")])
        for k in (1, 5):
            dev, _ = translation_covariance_check(gen, iid, obs, k, window=10)
            assert dev <= 1e-14

    def test_generic_shifts_within_budget(self, rand_gen, iid, site):
        obs = LocalObservable.from_sites(site, 0, [pauli(site, "z")])
        for k in (1, 2, 3):
            dev, budget = translation_covariance_check(
                rand_gen, iid, obs, k, window=30
            )
            assert dev <= budget + 1e-12


class TestClustering:
    def test_product_generator_uncorrelated(self, site, bond):
        rep = clustering_experiment(
            product_generator(site, bond),
            ErgodicDriver("constant"),
            LocalObservable.from_sites(site, 0, [pauli(site, "z")]),
            LocalObservable.from_sites(site, 0, [pauli(site, "x")]),
            gaps=[1, 2, 3],
            window=12,
        )
        assert all(r.corr < 1e-12 for r in rep.rows)
        assert rep.degenerate
        assert rep.all_pass

    def test_unit_observables_uncorrelated(self, rand_gen, iid, site):
        one = LocalObservable.from_sites(site, 0, [site.identity()])
        rep = clustering_experiment(
            rand_gen, iid, one, one, gaps=[1, 3], window=12,
        )
        assert all(r.corr < 1e-10 for r in rep.rows)

    def test_contracting_generator_bounds(self, site, bond):
        gen = random_unital_generator(site, bond, kraus_rank=2)
        rep = clustering_experiment(
            gen,
            ErgodicDriver("iid_shift", master_seed=99),
            LocalObservable.from_sites(site, 0, [pauli(site, "z")]),
            LocalObservable.from_sites(site, 0, [pauli(site, "x")]),
            gaps=[1, 2, 3, 4, 5, 6],
            window=20,
        )
        assert rep.all_pass
        assert not rep.degenerate
        # the fitted decay is no slower than the certified bound's per-gap rate
        first, last = rep.rows[0], rep.rows[-1]
        bound_rate = (last.bound_rhs / first.bound_rhs) ** (1.0 / (last.gap - first.gap))
        assert rep.kappa_fit <= bound_rate + 0.05
        # decay is genuinely exponential: correlations shrink across gaps
        assert rep.rows[-1].corr < rep.rows[0].corr

    def test_bound_is_the_middle_certificate(self, site, bond):
        # bound_rhs is 8 ||a|| ||b|| min(1, U) with U certified on the bond
        # predual composed over sites 1 .. gap-1, built here from predual()
        gen = random_unital_generator(site, bond, kraus_rank=2)
        driver = ErgodicDriver("iid_shift", master_seed=5)
        f = site.element([np.diag([2.0, -0.5])])
        a = LocalObservable.from_sites(site, 0, [pauli(site, "z"), f])
        b = LocalObservable.from_sites(site, 0, [pauli(site, "x")])
        gaps = [1, 2, 3, 5, 8]
        rep = clustering_experiment(gen, driver, a, b, gaps=gaps, window=12)
        norms = norm(site, f, "inf") * norm(site, pauli(site, "z"), "inf")
        norms *= norm(site, pauli(site, "x"), "inf")
        assert rep.rows[0].bound_rhs == 8.0 * norms
        assert rep.rows[0].flank_upper == 1.0
        for gap, row in zip(gaps[1:], rep.rows[1:]):
            mid = reduce(
                lambda acc, site_idx: predual(gen.induced_phi(driver.point_at(site_idx))).matrix @ acc,
                range(1, gap),
                np.eye(bond.dim),
            )
            comp = SuperOperator(bond, mid, MapFlags(positive="yes", faithful="yes"))
            upper = min(1.0, certified_upper(comp).upper_bound)
            assert row.flank_upper == pytest.approx(upper, rel=1e-12, abs=1e-15)
            assert row.bound_rhs == pytest.approx(8.0 * norms * upper, rel=1e-12, abs=1e-15)
        assert rep.rows[-1].flank_upper < 0.5

    def test_runs_no_estimated_process(self, rand_gen, iid, site, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("clustering ran an estimate")

        monkeypatch.setattr(qmaps, "contraction_estimate", boom)
        monkeypatch.setattr(process, "contraction_estimate", boom)
        monkeypatch.setattr(process, "run_experiment", boom)
        obs = LocalObservable.from_sites(site, 0, [pauli(site, "z")])
        rep = clustering_experiment(rand_gen, iid, obs, obs, gaps=[1, 2, 4], window=12)
        assert rep.all_pass and len(rep.rows) == 3

    def test_deprecated_arguments_ignored(self, site, bond, iid):
        obs = LocalObservable.from_sites(site, 0, [pauli(site, "z")])
        plain = clustering_experiment(
            random_unital_generator(site, bond, kraus_rank=2), iid, obs, obs, [1, 3], 10
        )
        legacy = clustering_experiment(
            random_unital_generator(site, bond, kraus_rank=2),
            iid,
            obs,
            obs,
            [1, 3],
            10,
            pre_run_length=16,
            est_opts=EstimatorOptions(n_samples=8, refine_iters=0),
            est_seed=123,
        )
        assert plain == legacy

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("kraus_rank", [2, 3])
    def test_corr_within_bound_sweep(self, site, bond, seed, kraus_rank):
        drivers = [
            ErgodicDriver("iid_shift", master_seed=seed),
            ErgodicDriver("cyclic", master_seed=seed, period=3),
            ErgodicDriver("rotation", alpha=(np.sqrt(5) - 1) / 2, omega0=0.1 * seed),
            ErgodicDriver("constant"),
        ]
        a = LocalObservable.from_sites(site, 0, [pauli(site, "z"), pauli(site, "x")])
        b = LocalObservable.from_sites(site, 0, [site.element([np.array([[0.5, 1j], [-1j, -1.0]])])])
        for driver in drivers:
            gen = random_unital_generator(site, bond, kraus_rank=kraus_rank)
            rep = clustering_experiment(gen, driver, a, b, gaps=range(1, 9), window=14)
            for row in rep.rows:
                assert row.corr <= row.bound_rhs, (driver.kind, row)


class TestBirkhoff:
    def test_constant_driver_is_flat(self, site, bond):
        gen = product_generator(site, bond)
        obs = LocalObservable.from_sites(site, 0, [site.element([np.diag([2.0, 0.0])])])
        rep = birkhoff_average(
            gen, ErgodicDriver("constant"), obs, n_max=4, omega_samples=1, window=8
        )
        for arr in rep.partial_averages:
            assert np.allclose(arr, arr[0])

    def test_product_generator_exact(self, site, bond, iid):
        gen = product_generator(site, bond)
        obs = LocalObservable.from_sites(site, 0, [site.element([np.diag([2.0, 0.0])])])
        rep = birkhoff_average(gen, iid, obs, n_max=3, omega_samples=2, window=8)
        for z in rep.limit_estimates:
            assert z.real == pytest.approx(1.0, abs=1e-10)
        assert rep.cross_sample_spread <= 1e-10

    def test_partial_averages_settle(self, rand_gen, site):
        obs = LocalObservable.from_sites(site, 0, [pauli(site, "z")])
        driver = ErgodicDriver("iid_shift", master_seed=2)
        rep = birkhoff_average(
            rand_gen, driver, obs, n_max=10, omega_samples=2, window=16
        )
        for arr in rep.partial_averages:
            early = np.abs(np.diff(arr[:3])).max()
            late = np.abs(np.diff(arr[-3:])).max()
            assert late <= max(early, 0.05) + 1e-12

    def test_rotation_driver_fluctuation_envelope(self, rand_gen, site):
        # partial averages along an irrational rotation fluctuate within a
        # generous 1/sqrt(N)-type envelope around the deepest average
        obs = LocalObservable.from_sites(site, 0, [pauli(site, "z")])
        driver = ErgodicDriver("rotation", alpha=(np.sqrt(5) - 1) / 2, omega0=0.3)
        rep = birkhoff_average(
            rand_gen, driver, obs, n_max=12, omega_samples=1, window=16
        )
        arr = rep.partial_averages[0]
        target = arr[-1]
        for n, val in zip(rep.n_values, arr):
            width = 2 * n + 1
            assert abs(val - target) <= 3.0 / np.sqrt(width) + 1e-9

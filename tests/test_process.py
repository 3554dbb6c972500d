import math

import numpy as np
import pytest

from hennion_lab import norm, process, random_state, trace
from hennion_lab.errors import (
    InvertibilityViolationError,
    NotEnoughDataError,
    RejectedInputError,
)
from hennion_lab.process import (
    RESOLUTION_FLOOR,
    ChannelEnsemble,
    ErgodicDriver,
    EstimatorOptions,
    ProcessPlan,
    dual_normalized_value,
    equivariance_residual,
    estimate_rate_C,
    extend_process,
    limit_state_estimate,
    rank_one_collapse_check,
    run_experiment,
    start_process,
    stopping_time_nu,
)
from hennion_lab.qmaps import (
    compose,
    contraction_estimate,
    depolarizing_channel,
    predual,
    projective_action,
    replacement_channel,
    transpose_map,
)

FAST = EstimatorOptions(n_samples=8, refine_iters=0, eta_samples=6)


def closed_form_c(length: int, eps: float = 0.5) -> float:
    rho = (1.0 - eps) ** length
    return 2.0 * rho / (1.0 + rho * rho)


def collapse_gap(alg, s, a) -> float:
    """|| s(a)/tau(s(1)) - tau(B a) X ||_1 with X = s(1/d) normalized, B = s*(1) normalized."""
    one = alg.identity()
    x = projective_action(s, alg.maximally_mixed())
    b = s.apply_dual(one)
    b = b * (1.0 / trace(alg, b).real)
    scaled = s.apply(a) * (1.0 / trace(alg, s.apply(one)).real)
    return norm(alg, scaled - trace(alg, b @ a) * x.element, "one")


class TestDrivers:
    def test_point_determinism(self):
        d = ErgodicDriver("iid_shift", master_seed=99)
        assert d.point_at(5) == d.point_at(5)
        assert d.point_at(5) != d.point_at(6)

    def test_shift_is_index_shift(self):
        d = ErgodicDriver("iid_shift", master_seed=99)
        assert d.shift(3).point_at(2) == d.point_at(5)
        assert d.shift(3).shift(-3).point_at(2) == d.point_at(2)

    def test_negative_indices_supported(self):
        d = ErgodicDriver("iid_shift", master_seed=7)
        assert d.point_at(-40) != d.point_at(40)

    def test_rotation_orbit(self):
        alpha = (np.sqrt(5) - 1) / 2
        d = ErgodicDriver("rotation", alpha=alpha, omega0=0.25)
        assert d.point_at(3) == pytest.approx((0.25 + 3 * alpha) % 1.0)
        assert d.shift(1).point_at(2) == pytest.approx(d.point_at(3))

    def test_cyclic_period(self):
        d = ErgodicDriver("cyclic", master_seed=1, period=3)
        assert d.point_at(0) == d.point_at(3) == d.point_at(-3)
        assert d.point_at(0) != d.point_at(1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(RejectedInputError):
            ErgodicDriver("weather")


class TestEnsembles:
    def test_emitted_maps_validated(self, qubit):
        ens = ChannelEnsemble.random_kraus(qubit, k=2, mix_eps=0.3)
        ens.validate(ErgodicDriver("iid_shift", master_seed=3))

    def test_channel_is_pure_function(self, qubit):
        ens = ChannelEnsemble.random_kraus(qubit, k=2, mix_eps=0.3)
        a = ens.channel_at(123)
        b = ens.channel_at(123)
        assert np.array_equal(a.matrix, b.matrix)

    def test_mixture_distribution(self, qubit):
        ens = ChannelEnsemble.mixture(
            [transpose_map(qubit), depolarizing_channel(qubit, 0.5)], [0.5, 0.5]
        )
        d = ErgodicDriver("iid_shift", master_seed=11)
        picks = [
            np.array_equal(
                ens.channel_at(d.point_at(n)).matrix, transpose_map(qubit).matrix
            )
            for n in range(400)
        ]
        frac = np.mean(picks)
        assert 0.4 <= frac <= 0.6

    def test_strongly_summable_family_contracts(self, qubit):
        ens = ChannelEnsemble.strongly_summable_family(qubit, n_pairs=3, eta=0.5)
        ch = ens.channel_at(5)
        assert ch.flags.faithful == "yes"
        from hennion_lab.qmaps import contraction_estimate

        est = contraction_estimate(ch, n_samples=12, refine_iters=0)
        assert est.upper_bound <= (1 - 0.5**8) / (1 + 0.5**8) + 1e-9

    def test_interpolated_curve(self, qubit):
        ens = ChannelEnsemble.interpolated(
            qubit, lambda t: depolarizing_channel(qubit, 0.2 + 0.6 * t)
        )
        d = ErgodicDriver("rotation", alpha=(np.sqrt(5) - 1) / 2, omega0=0.1)
        ch = ens.channel_at(d.point_at(0))
        sz = qubit.element([np.diag([1.0, -1.0])])
        shrink = 1 - 0.2 - 0.6 * 0.1  # traceless part scales by 1 - eps
        assert norm(qubit, ch.apply(sz) - shrink * sz, "inf") <= 1e-12


class TestExtension:
    def test_replacement_collapses_immediately(self, qubit, rng):
        x0 = random_state(qubit, "full", rng)
        ens = ChannelEnsemble.constant(replacement_channel(qubit, x0))
        rec = start_process(ErgodicDriver("constant"), ens, "gamma_right", 0, FAST)
        assert rec.c_trace[0].upper <= 1e-12
        assert stopping_time_nu(rec) == 0.0

    def test_depolarizing_closed_form(self, qubit):
        ens = ChannelEnsemble.constant(depolarizing_channel(qubit, 0.5))
        rec = start_process(ErgodicDriver("constant"), ens, "gamma_right", 0, FAST)
        for _ in range(7):
            extend_process(rec)
        for entry in rec.c_trace:
            assert entry.lower == pytest.approx(closed_form_c(entry.length), abs=1e-9)
            assert entry.upper >= closed_form_c(entry.length) - 1e-12

    def test_transpose_never_contracts(self, qubit):
        ens = ChannelEnsemble.constant(transpose_map(qubit))
        rec = start_process(ErgodicDriver("constant"), ens, "gamma_right", 0, FAST)
        for _ in range(6):
            extend_process(rec)
        assert all(e.lower > 1 - 1e-9 for e in rec.c_trace)
        assert stopping_time_nu(rec) == math.inf

    def test_directions_compose_on_correct_side(self, qubit):
        ens = ChannelEnsemble.random_kraus(qubit, k=2, mix_eps=0.4)
        d = ErgodicDriver("iid_shift", master_seed=21)
        right = start_process(d, ens, "gamma_right", 5, FAST)
        extend_process(right)
        assert (right.n_anchor, right.m_anchor) == (5, 4)
        manual = ens.channel_at(d.point_at(5)).matrix @ ens.channel_at(d.point_at(4)).matrix
        assert np.allclose(right.composed.matrix, manual)
        left = start_process(d, ens, "phi_left", 5, FAST)
        extend_process(left)
        assert (left.n_anchor, left.m_anchor) == (6, 5)
        manual = ens.channel_at(d.point_at(6)).matrix @ ens.channel_at(d.point_at(5)).matrix
        assert np.allclose(left.composed.matrix, manual)

    def test_trace_bounds_monotone(self, qubit):
        ens = ChannelEnsemble.random_kraus(qubit, k=2, mix_eps=0.25)
        rec = start_process(
            ErgodicDriver("iid_shift", master_seed=29), ens, "gamma_right", 0, FAST
        )
        for _ in range(12):
            extend_process(rec)
        lowers = [e.lower for e in rec.c_trace]
        uppers = [e.upper for e in rec.c_trace]
        assert all(b <= a + 1e-15 for a, b in zip(lowers, lowers[1:]))
        assert all(b <= a + 1e-15 for a, b in zip(uppers, uppers[1:]))

    def test_stepwise_submultiplicativity(self, qubit):
        ens = ChannelEnsemble.random_kraus(qubit, k=3, mix_eps=0.3)
        d = ErgodicDriver("iid_shift", master_seed=22)
        rec = start_process(d, ens, "gamma_right", 0, FAST)
        uppers = {1: rec.latest_upper()}
        for _ in range(9):
            extend_process(rec)
            uppers[rec.length] = rec.latest_upper()
        for k in range(2, 10):
            assert rec.c_trace[k - 1].lower <= uppers[k - 1] * uppers[1] + 1e-6

    def test_nesting_of_images(self, qubit, rng):
        # deepening the composition keeps probe images inside the certified
        # ball of the shallower image set
        ens = ChannelEnsemble.random_kraus(qubit, k=3, mix_eps=0.3)
        d = ErgodicDriver("iid_shift", master_seed=23)
        rec = start_process(d, ens, "gamma_right", 0, FAST)
        probe = random_state(qubit, "full", rng)
        prev_img = projective_action(rec.composed, probe)
        for _ in range(6):
            prev_upper = rec.latest_upper()
            extend_process(rec)
            img = projective_action(rec.composed, probe)
            from hennion_lab import hennion_distance

            assert hennion_distance(img, prev_img) <= prev_upper + 1e-9
            prev_img = img

    def test_renormalization_logged(self, qubit):
        ens = ChannelEnsemble.constant(depolarizing_channel(qubit, 0.5).rescaled(3.0))
        rec = start_process(ErgodicDriver("constant"), ens, "gamma_right", 0, FAST)
        for _ in range(30):
            extend_process(rec)
        assert rec.log_scale != 0.0
        t = trace(qubit, rec.composed.apply(qubit.identity())).real
        assert 1e-6 < t < 1e6


class TestFloorCarry:
    """Below RESOLUTION_FLOOR the trace carries its bound and estimates nothing."""

    OPTS = EstimatorOptions(n_samples=10, refine_iters=4)
    SEED = 12345

    def _stream(self, qubit, monkeypatch, direction, floor):
        # an i.i.d. depolarizing(0.5)/(0.6) stream to length 60; every call
        # of contraction_estimate is counted with the map it was given
        monkeypatch.setattr(process, "RESOLUTION_FLOOR", floor)
        seen = []

        def counted(s, **kwargs):
            seen.append(s)
            return contraction_estimate(s, **kwargs)

        monkeypatch.setattr(process, "contraction_estimate", counted)
        ens = ChannelEnsemble.mixture(
            [depolarizing_channel(qubit, 0.5), depolarizing_channel(qubit, 0.6)], [0.5, 0.5]
        )
        d = ErgodicDriver("iid_shift", master_seed=7)
        rec = start_process(d, ens, direction, 0, self.OPTS, self.SEED)
        for _ in range(59):
            extend_process(rec)
        return rec, seen

    @pytest.mark.parametrize("direction", ["gamma_right", "phi_left"])
    def test_carried_below_floor(self, qubit, monkeypatch, direction):
        rec, seen = self._stream(qubit, monkeypatch, direction, RESOLUTION_FLOOR)
        ref, ref_seen = self._stream(qubit, monkeypatch, direction, 0.0)
        entries = rec.c_trace
        first = next(k for k, e in enumerate(entries) if e.upper < RESOLUTION_FLOOR)
        assert 10 < first < 50 and len(entries) == 60
        # one estimate per length up to the first entry below the floor, none after
        assert len(seen) == first + 1 and len(ref_seen) == 60
        assert entries[: first + 1] == ref.c_trace[: first + 1]
        for e in entries[first + 1 :]:
            assert (e.exact, e.lower, e.upper, e.upper_method) == (
                False,
                0.0,
                entries[first].upper,
                "carried",
            )
        # a carried bound is still an upper bound of every fresh lower bound
        assert all(e.lower <= entries[first].upper for e in ref.c_trace[first:])
        # fresh entries are the estimate at their derived seed, kept monotone
        lower, upper = 1.0, 1.0
        for e, s in zip(entries[: first + 1], seen):
            rng = np.random.default_rng(process.derive_seed(self.SEED, f"estimate:{e.length}"))
            est = contraction_estimate(s, rng=rng, **self.OPTS.call_kwargs())
            lower, upper = min(lower, est.lower_bound), min(upper, est.upper_bound)
            assert (e.exact, e.lower, e.upper) == (True, lower, upper)
            assert e.upper_method == (
                est.upper_method if e.upper == est.upper_bound else "carried"
            )


class TestRate:
    def test_exact_zero_flag(self, qubit, rng):
        ens = ChannelEnsemble.constant(
            replacement_channel(qubit, random_state(qubit, "full", rng))
        )
        res = run_experiment(
            ErgodicDriver("constant"), ens, ProcessPlan(m_start=1, n_end=12), est_opts=FAST
        )
        assert res.record.rate_C == 0.0
        assert res.record.rate_exact_zero

    def test_not_enough_data(self, qubit):
        ens = ChannelEnsemble.constant(transpose_map(qubit))
        rec = start_process(ErgodicDriver("constant"), ens, "gamma_right", 0, FAST)
        for _ in range(12):
            extend_process(rec)
        with pytest.raises(NotEnoughDataError):
            estimate_rate_C(rec)

    def test_exponential_domination(self, qubit):
        ens = ChannelEnsemble.constant(depolarizing_channel(qubit, 0.5))
        res = run_experiment(
            ErgodicDriver("constant"), ens, ProcessPlan(m_start=1, n_end=25), est_opts=FAST
        )
        rec = res.record
        assert rec.D_prefactor is not None and np.isfinite(rec.D_prefactor)
        for e in rec.c_trace:
            if e.exact and RESOLUTION_FLOOR <= e.upper < 1.0:
                assert e.upper <= rec.D_prefactor * rec.kappa**e.length * (1 + 1e-9)

    def test_rate_duality(self, qubit):
        # the dual-side composition collapses at the same rate
        ens = ChannelEnsemble.random_kraus(qubit, k=3, mix_eps=0.35)

        def dual_builder(parameter):
            return predual(ens.channel_at(parameter))

        dual_ens = ChannelEnsemble(qubit, "dual", dual_builder)
        d = ErgodicDriver("iid_shift", master_seed=31)
        opts = EstimatorOptions(n_samples=10, refine_iters=4, eta_samples=8)
        res = run_experiment(d, ens, ProcessPlan(m_start=1, n_end=45), est_opts=opts)
        res_dual = run_experiment(d, dual_ens, ProcessPlan(m_start=1, n_end=45), est_opts=opts)
        assert abs(res.record.rate_C - res_dual.record.rate_C) <= 0.02

    def test_dual_process_index_reversal(self, qubit):
        # the adjoint of the composition of adjoints at negated indices
        # recovers the original composition: dual(phi_{-n} ... phi_{-m})
        # equals gamma_{-m} ... gamma_{-n}
        ens = ChannelEnsemble.random_kraus(qubit, k=2, mix_eps=0.4)
        d = ErgodicDriver("iid_shift", master_seed=61)
        m, n = 1, 4
        phi = predual(ens.channel_at(d.point_at(-n)))
        for j in range(n - 1, m - 1, -1):
            phi_j = predual(ens.channel_at(d.point_at(-j)))
            phi = ChannelEnsemble.constant(phi).channel_at(0)
            from hennion_lab.qmaps import compose

            phi = compose(phi, phi_j)
        gamma = ens.channel_at(d.point_at(-m))
        for j in range(m + 1, n + 1):
            from hennion_lab.qmaps import compose

            gamma = compose(gamma, ens.channel_at(d.point_at(-j)))
        assert np.allclose(phi.matrix.T, gamma.matrix)

    def test_driver_covariance_of_prefactors(self, qubit):
        # shifting the driver by ell reproduces the anchored prefactors
        ens = ChannelEnsemble.random_kraus(qubit, k=3, mix_eps=0.35)
        d = ErgodicDriver("iid_shift", master_seed=32)
        opts = EstimatorOptions(n_samples=10, refine_iters=4, eta_samples=8)
        shift = 4
        rec_a = start_process(d, ens, "phi_left", shift, opts)
        rec_b = start_process(d.shift(shift), ens, "phi_left", 0, opts)
        for _ in range(20):
            extend_process(rec_a)
            extend_process(rec_b)
        ua = [e.upper for e in rec_a.c_trace]
        ub = [e.upper for e in rec_b.c_trace]
        assert np.allclose(ua, ub, rtol=1e-9, atol=1e-12)


class TestLimitsAndResiduals:
    def test_limit_state_replacement(self, qubit, rng):
        x0 = random_state(qubit, "full", rng)
        ens = ChannelEnsemble.constant(replacement_channel(qubit, x0))
        rec = start_process(ErgodicDriver("constant"), ens, "gamma_right", 0, FAST)
        probes = [random_state(qubit, "full", rng) for _ in range(3)]
        limit, spread = limit_state_estimate(rec, probes)
        assert norm(qubit, limit.element - x0.element, "one") <= 1e-10
        assert spread <= 1e-12

    def test_spread_bounded_by_interval(self, qubit, rng):
        ens = ChannelEnsemble.constant(depolarizing_channel(qubit, 0.5))
        rec = start_process(ErgodicDriver("constant"), ens, "gamma_right", 0, FAST)
        probes = [random_state(qubit, k, rng) for k in ("full", "pure", "boundary")]
        for _ in range(10):
            extend_process(rec)
            _, spread = limit_state_estimate(rec, probes)
            assert spread <= 2 * rec.latest_upper() + 1e-9

    def test_equivariance_residual_decays(self, qubit, rng):
        ens = ChannelEnsemble.random_kraus(qubit, k=3, mix_eps=0.3)
        rec = start_process(
            ErgodicDriver("iid_shift", master_seed=33), ens, "gamma_right", 0, FAST
        )
        for _ in range(35):
            extend_process(rec)
        resid = equivariance_residual(
            rec, random_state(qubit, "full", rng), random_state(qubit, "full", rng)
        )
        assert resid <= 1e-6

    def test_dual_value_identity_observable(self, qubit):
        ens = ChannelEnsemble.random_kraus(qubit, k=2, mix_eps=0.4)
        rec = start_process(
            ErgodicDriver("iid_shift", master_seed=34), ens, "phi_left", 0, FAST
        )
        scalar, resid = dual_normalized_value(rec, qubit.identity())
        assert scalar == pytest.approx(1.0, abs=1e-10)
        assert resid <= 1e-10

    def test_dual_value_unital_ensemble(self, qubit, rng):
        from hennion_lab.qmaps import mixed_unitary_channel

        ch = mixed_unitary_channel(qubit, np.random.default_rng(8))
        ens = ChannelEnsemble.constant(ch)
        rec = start_process(ErgodicDriver("constant"), ens, "phi_left", 0, FAST)
        a = qubit.element([np.diag([1.0, -1.0])])
        scalar, resid = dual_normalized_value(rec, a)
        direct = ch.apply(a)
        assert abs(scalar - trace(qubit, direct).real) <= 1e-10

    def test_dual_value_needs_invertible_image(self, qubit):
        from hennion_lab.process import ProcessRecord
        from hennion_lab.qmaps import from_kraus

        p = qubit.element([np.diag([1.0, 0.0])])
        s = from_kraus(qubit, [p])  # corner compression: image of 1 singular
        ens = ChannelEnsemble.constant(s)
        rec = ProcessRecord(
            direction="phi_left",
            driver=ErgodicDriver("constant"),
            ensemble=ens,
            n_anchor=0,
            m_anchor=0,
            composed=s,
        )
        with pytest.raises(InvertibilityViolationError):
            dual_normalized_value(rec, qubit.identity())

    def test_collapse_prefactor_replay(self, qubit):
        ens = ChannelEnsemble.constant(depolarizing_channel(qubit, 0.5))
        res = run_experiment(
            ErgodicDriver("constant"), ens, ProcessPlan(m_start=1, n_end=40), est_opts=FAST
        )
        a = qubit.identity()
        report = rank_one_collapse_check(res.record, a, kappa=0.55)
        assert report.stabilized
        # lhs at the identity observable is the collapse gap of the identity
        for length, lhs in zip(report.lengths, report.lhs_values):
            assert lhs <= 2 * closed_form_c(length) + 1e-9

    @pytest.mark.parametrize("direction", ["gamma_right", "phi_left"])
    def test_collapse_check_reads_the_record(self, qubit, monkeypatch, direction):
        ens = ChannelEnsemble.random_kraus(qubit, k=3, mix_eps=0.3)
        d = ErgodicDriver("iid_shift", master_seed=35)
        n = 30  # past one rescaling of the record's composition
        res = run_experiment(
            d, ens, ProcessPlan(m_start=1, n_end=n, direction=direction), est_opts=FAST
        )
        a = qubit.element([np.diag([1.0, -1.0])])
        indices = range(n, 0, -1) if direction == "gamma_right" else range(1, n + 1)
        current, expected = None, []
        for idx in indices:
            step = ens.channel_at(d.point_at(idx))
            if current is None:
                current = step
            elif direction == "gamma_right":
                current = compose(current, step)
            else:
                current = compose(step, current)
            expected.append(collapse_gap(qubit, current, a))

        def refuse(*args, **kwargs):
            raise AssertionError("the composition was rebuilt")

        monkeypatch.setattr(process, "compose", refuse)
        monkeypatch.setattr(ChannelEnsemble, "channel_at", refuse)
        report = rank_one_collapse_check(res.record, a, kappa=0.5)
        assert report.lengths == list(range(1, n + 1))
        assert report.lhs_values == pytest.approx(expected, rel=1e-9, abs=1e-13)

    def test_dual_value_gamma_right_is_predual_value(self, qubit):
        from hennion_lab.process import ProcessRecord

        ens = ChannelEnsemble.random_kraus(qubit, k=2, mix_eps=0.4)
        rec = start_process(
            ErgodicDriver("iid_shift", master_seed=36), ens, "gamma_right", 0, FAST
        )
        for _ in range(5):
            extend_process(rec)
        dual_view = ProcessRecord(
            direction="phi_left",
            driver=rec.driver,
            ensemble=ens,
            n_anchor=rec.n_anchor,
            m_anchor=rec.m_anchor,
            composed=predual(rec.composed),
        )
        a = qubit.element([np.diag([1.0, -1.0])])
        assert dual_normalized_value(rec, a) == dual_normalized_value(dual_view, a)


class TestRunExperiment:
    def test_rows_schema_and_nu(self, qubit):
        ens = ChannelEnsemble.constant(depolarizing_channel(qubit, 0.5))
        res = run_experiment(
            ErgodicDriver("constant"), ens, ProcessPlan(m_start=1, n_end=15), est_opts=FAST
        )
        assert len(res.rows) == 15
        lengths = [r[0] for r in res.rows]
        assert lengths == list(range(1, 16))
        assert all(r[5] == 1 for r in res.rows)  # contracting from length one

    def test_determinism(self, qubit):
        ens = ChannelEnsemble.random_kraus(qubit, k=2, mix_eps=0.3)
        plan = ProcessPlan(m_start=1, n_end=10)
        d = ErgodicDriver("iid_shift", master_seed=77)
        r1 = run_experiment(d, ens, plan, est_opts=FAST, probe_seed=1)
        r2 = run_experiment(d, ens, plan, est_opts=FAST, probe_seed=1)
        assert r1.rows == r2.rows

    def test_sup_condition_logged(self, qubit):
        ens = ChannelEnsemble.random_kraus(qubit, k=2, mix_eps=0.4)
        res = run_experiment(
            ErgodicDriver("iid_shift", master_seed=55),
            ens,
            ProcessPlan(m_start=1, n_end=10),
            est_opts=FAST,
        )
        assert np.isfinite(res.record.sup_dual_inverse)
        assert res.record.sup_dual_inverse > 0.0

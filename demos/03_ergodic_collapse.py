"""Random channel compositions collapsing to replacement channels.

Composes channels drawn along an ergodic orbit and watches the certified
contraction interval of the composition shrink geometrically.  The
asymptotic rate is extracted by regression (a subadditive-ergodic limit),
the first certified-contracting length gives a stopping time, and the
composition's action collapses to `x -> tau(B a) X` in both directions.

Run:  python3 demos/03_ergodic_collapse.py
"""

import math

import numpy as np

from hennion_lab import make_algebra, random_state
from hennion_lab.process import (
    ChannelEnsemble,
    ErgodicDriver,
    EstimatorOptions,
    ProcessPlan,
    derive_seed,
    equivariance_residual,
    extend_process,
    rank_one_collapse_check,
    run_experiment,
    start_process,
    stopping_time_nu,
)
from hennion_lab.qmaps import depolarizing_channel, transpose_map

alg = make_algebra([2], [1.0])
opts = EstimatorOptions(n_samples=10, refine_iters=4)

print("=== constant depolarizing channel: closed-form collapse ===")
ens = ChannelEnsemble.constant(depolarizing_channel(alg, 0.5))
res = run_experiment(
    ErgodicDriver("constant"), ens, ProcessPlan(m_start=1, n_end=30),
    est_opts=EstimatorOptions(n_samples=8, refine_iters=0),
)
print("length   lower        closed form   upper")
for e in res.record.c_trace[:8]:
    rho = 0.5**e.length
    print(f"{e.length:>4}   {e.lower:.9f}  {2*rho/(1+rho*rho):.9f}  {e.upper:.9f}")
print(f"fitted rate C = {res.record.rate_C:.6f} (exact 0.5), r^2 = {res.record.rate_r2:.6f}")

print("\n=== i.i.d. mixture of two depolarizing strengths ===")
mix = ChannelEnsemble.mixture(
    [depolarizing_channel(alg, 0.5), depolarizing_channel(alg, 0.6)], [0.5, 0.5]
)
rates = []
for s in range(4):
    d = ErgodicDriver("iid_shift", master_seed=derive_seed(33, f"s{s}"))
    r = run_experiment(d, mix, ProcessPlan(m_start=1, n_end=45), est_opts=opts)
    rates.append(r.record.rate_C)
print("per-stream rates:", " ".join(f"{c:.4f}" for c in rates))
print(f"the subadditive limit is stream-independent; geometric mean law gives "
      f"sqrt(0.5*0.4) = {math.sqrt(0.2):.4f}")

print("\n=== stopping time of a transpose/depolarizing coin flip ===")
coin = ChannelEnsemble.mixture(
    [transpose_map(alg), depolarizing_channel(alg, 0.5)], [0.5, 0.5]
)
fast = EstimatorOptions(n_samples=6, refine_iters=0)
nus = []
for s in range(120):
    d = ErgodicDriver("iid_shift", master_seed=derive_seed(44, f"s{s}"))
    rec = start_process(d, coin, "gamma_right", 0, fast)
    while rec.nu_certified is None and rec.length < 40:
        extend_process(rec)
    nus.append(stopping_time_nu(rec))
hist = {k: nus.count(k) for k in sorted(set(nus))}
print("empirical distribution of the first certified-contracting length - 1:")
print("  ", hist, " (geometric with ratio 1/2)")

print("\n=== forward collapse: all probes land on the same state ===")
kraus = ChannelEnsemble.random_kraus(alg, k=3, mix_eps=0.3)
driver = ErgodicDriver("iid_shift", master_seed=55)
res = run_experiment(driver, kraus, ProcessPlan(m_start=1, n_end=40), est_opts=opts, probe_seed=9)
print("length   certified upper   probe spread")
for row in res.rows[::8]:
    print(f"{row[0]:>4}     {row[2]:.3e}        {row[3]:.3e}")
rng = np.random.default_rng(10)
resid = equivariance_residual(res.record, random_state(alg, "full", rng), random_state(alg, "full", rng))
print(f"one-step equivariance residual of the limit estimate: {resid:.2e}")

print("\n=== dual collapse: normalized observables become scalars ===")
res_dual = run_experiment(
    driver, kraus, ProcessPlan(m_start=1, n_end=40, direction="phi_left"),
    observable=alg.element([np.diag([1.0, -1.0])]), est_opts=opts,
)
print("length   scalar-collapse residual (operator norm)")
for row in res_dual.rows[::8]:
    print(f"{row[0]:>4}     {row[4]:.3e}")

print("\n=== rank-one collapse prefactor stabilizes ===")
report = rank_one_collapse_check(res.record, alg.element([np.diag([1.0, -1.0])]))
print(f"kappa = {report.kappa:.4f}; running prefactor at selected lengths:")
for i in range(0, len(report.lengths), 8):
    print(f"  length {report.lengths[i]:>3}: E = {report.e_running[i]:.4f}")
print("stabilized:", report.stabilized)

"""States on a two-sided spin chain generated by a random transfer map.

A unital positive generator consumes one site observable and one bond
observable at a time; iterating it along the chain and closing with the
limit state of the flanking bond process defines a translation-covariant
state on the whole chain.  Correlations between separated observables are
bounded by the certified contraction of the bond maps between them.

Run:  python3 demos/04_correlated_chain.py
"""

import numpy as np

from hennion_lab import make_algebra
from hennion_lab.fcs import (
    LocalObservable,
    birkhoff_average,
    clustering_experiment,
    product_generator,
    psi_value,
    random_unital_generator,
    translation_covariance_check,
)
from hennion_lab.process import ErgodicDriver

site = make_algebra([2], [1.0])
bond = make_algebra([2], [1.0])
sz = LocalObservable.from_sites(site, 0, [site.element([np.diag([1.0, -1.0])])])
sx = LocalObservable.from_sites(site, 0, [site.element([np.array([[0.0, 1.0], [1.0, 0.0]])])])

print("=== the product generator reproduces the infinite trace state ===")
gen0 = product_generator(site, bond)
drv0 = ErgodicDriver("constant")
obs = LocalObservable.from_sites(site, 0, [site.element([np.diag([2.0, 0.0])])])
est = psi_value(gen0, drv0, obs, window=10)
print(f"value of a rank-one site observable: {est.value.real:.12f} (the site trace is 1)")
rep0 = clustering_experiment(gen0, drv0, sz, sx, gaps=[1, 2, 3, 4], window=12)
print("correlations across any gap:", [f"{r.corr:.1e}" for r in rep0.rows])

print("\n=== a random unital generator with an i.i.d. driver ===")
gen = random_unital_generator(site, bond, kraus_rank=2)
driver = ErgodicDriver("iid_shift", master_seed=777)
est1 = psi_value(gen, driver, sz, window=25)
est2 = psi_value(gen, driver, sz, window=35)
print(f"window 25: {est1.value.real:+.12f}   certified truncation {est1.truncation_bound:.1e}")
print(f"window 35: {est2.value.real:+.12f}   certified truncation {est2.truncation_bound:.1e}")

print("\n=== translation covariance: shifting observables == shifting the point ===")
for k in (1, 2, 3):
    dev, budget = translation_covariance_check(gen, driver, sz, k, window=30)
    print(f"shift {k}: deviation {dev:.2e} within budget {budget:.2e}")

print("\n=== exponential clustering across the gap ===")
rep = clustering_experiment(gen, driver, sz, sx, gaps=list(range(1, 13)), window=25)
print("bound: 8 ||a|| ||b|| min(1, certified contraction of the bond maps between a and b)")
print(" gap    |corr|        certified bound   pass")
for r in rep.rows:
    print(f"{r.gap:>4}   {r.corr:.3e}     {r.bound_rhs:.3e}      {r.passed}")
print(f"fitted decay ratio per site: {rep.kappa_fit:.4f}")

print("\n=== orbit averages converge to a translation-invariant value ===")
birk = birkhoff_average(gen, driver, sz, n_max=8, omega_samples=3, window=20)
for i, arr in enumerate(birk.partial_averages):
    tail = " ".join(f"{v.real:+.5f}" for v in arr[-4:])
    print(f"sample {i}: partial averages -> {tail}")
print(f"cross-sample spread of the deepest averages: {birk.cross_sample_spread:.2e}")

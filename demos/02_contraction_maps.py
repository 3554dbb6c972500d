"""Contraction constants of positive maps under the projective metric.

The projective action of a faithful positive map is nonexpansive; its
Lipschitz constant equals the metric diameter of the image of the state
space.  This demo brackets that constant for several maps, certifies
strict contractions through the operator-sandwich criterion (whose
constants come from Choi and co-Choi matrices), and checks
that the constant is invariant under trace-pairing duality.

Run:  python3 demos/02_contraction_maps.py
"""

import numpy as np

from hennion_lab import hennion_distance, make_algebra, random_state
from hennion_lab.qmaps import (
    compose,
    contraction_estimate,
    depolarizing_channel,
    dephasing_map,
    from_strongly_summable,
    irreducibility_probe,
    is_strict_contraction,
    mixed_unitary_channel,
    predual,
    projective_action,
    replacement_channel,
    transpose_map,
    unitalize,
)

alg = make_algebra([2], [1.0])
rng = np.random.default_rng(1)


def report(name, s, **kwargs):
    est = contraction_estimate(s, rng=np.random.default_rng(5), **kwargs)
    verdict = is_strict_contraction(s, est)
    print(
        f"{name:<28} c in [{est.lower_bound:.6f}, {est.upper_bound:.6f}]"
        f"  eta={est.cert.eta:.4f} via {est.cert.method:<7}  {verdict}"
    )
    return est


print("=== brackets for the projective Lipschitz constant ===")
report("replacement channel", replacement_channel(alg, random_state(alg, "full", rng)),
       n_samples=24, refine_iters=0)
report("transpose (isometry)", transpose_map(alg), n_samples=64, refine_iters=0)
est_dep = report("depolarizing eps=0.5", depolarizing_channel(alg, 0.5),
                 n_samples=48, refine_iters=30)
print("   exact constant for the depolarizing family: 2r/(1+r^2) with r = 1-eps = 0.8")
report("depolarizing after transpose",
       compose(depolarizing_channel(alg, 0.5), transpose_map(alg)), n_samples=48, refine_iters=30)
print("   not completely positive: the co-Choi matrix proves its lower sandwich side")

print("\n=== brute-force grid oracle for the depolarizing constant ===")
best = 0.0
grid = np.linspace(0, np.pi, 40)
dep = depolarizing_channel(alg, 0.5)
for t1 in grid:
    v1 = np.array([np.cos(t1 / 2), np.sin(t1 / 2)])
    x1 = alg.element([2 * np.outer(v1, v1)])
    for t2 in grid:
        v2 = np.array([np.cos(t2 / 2), np.sin(t2 / 2)])
        x2 = alg.element([2 * np.outer(v2, v2)])
        from hennion_lab import State

        d = hennion_distance(
            projective_action(dep, State.from_element(x1)),
            projective_action(dep, State.from_element(x2)),
        )
        best = max(best, d)
print(f"grid maximum over real pure pairs: {best:.6f} (refined estimate {est_dep.lower_bound:.6f})")

print("\n=== strongly summable family with an explicit certificate ===")
# pairs (a_i, m_i) with every m_i pinched between eta*m and m/eta give a
# strict contraction whose constant is at most (1 - eta^8)/(1 + eta^8)
eta = 0.5
base = random_state(alg, "full", rng).element
w, v = np.linalg.eigh(base.blocks[0])
sq = alg.element([(v * np.sqrt(w)) @ v.conj().T])
pairs = []
for _ in range(4):
    a = random_state(alg, "full", rng).element
    c = rng.uniform(eta, 1 / eta)
    pairs.append((a, sq @ (c * alg.identity()) @ sq))
ss = from_strongly_summable(alg, pairs)
est = report("strongly summable", ss, n_samples=32, refine_iters=10)
print(f"   a-priori certificate: (1-eta^8)/(1+eta^8) = {(1-eta**8)/(1+eta**8):.6f}")

print("\n=== duality: the constant is preserved by the trace-pairing adjoint ===")
mu = mixed_unitary_channel(alg, np.random.default_rng(12))
e1 = contraction_estimate(mu, n_samples=24, refine_iters=15, rng=np.random.default_rng(3), polish=True)
e2 = contraction_estimate(predual(mu), n_samples=24, refine_iters=15, rng=np.random.default_rng(4), polish=True)
print(f"map     : [{e1.lower_bound:.8f}, {e1.upper_bound:.8f}]")
print(f"predual : [{e2.lower_bound:.8f}, {e2.upper_bound:.8f}]")

print("\n=== composition never grows the constant ===")
a = depolarizing_channel(alg, 0.3)
b = depolarizing_channel(alg, 0.4)
ea = contraction_estimate(a, n_samples=16, refine_iters=10, rng=np.random.default_rng(6))
eb = contraction_estimate(b, n_samples=16, refine_iters=10, rng=np.random.default_rng(7))
ab = compose(a, b)
eab = contraction_estimate(ab, n_samples=16, refine_iters=10, rng=np.random.default_rng(8))
print(f"c(a) <= {ea.upper_bound:.4f}, c(b) <= {eb.upper_bound:.4f}, "
      f"product {ea.upper_bound * eb.upper_bound:.4f}, c(a b) >= {eab.lower_bound:.4f}")

print("\n=== reducibility probe ===")
print("dephasing map      :", irreducibility_probe(dephasing_map(alg)).kind)
certified = contraction_estimate(depolarizing_channel(alg, 0.5), n_samples=8, refine_iters=0)
print("strict contraction :", irreducibility_probe(depolarizing_channel(alg, 0.5)).kind)

print("\n=== unital-tracial repair of a subnormalized map ===")
from hennion_lab.qmaps import SuperOperator, validate_flags

shrunk = validate_flags(SuperOperator(alg, 0.6 * mixed_unitary_channel(alg, rng).matrix))
fixed = unitalize(shrunk)
print("repaired flags: unital =", fixed.flags.unital, ", tracial =", fixed.flags.tracial)

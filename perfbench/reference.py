"""Reference computations made apart from hennion_lab, with numpy only.

Every output check of the benchmark compares the program against one of
these functions or against a closed form below.  Nothing here imports the
package under test.
"""

from __future__ import annotations

import math

import numpy as np


def _inv_sqrt(y: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(y)
    if w[0] <= 0.0:
        raise ValueError("reference order coefficient needs an invertible y")
    return (v / np.sqrt(w)) @ v.conj().T


def order_coefficient(x_blocks, y_blocks) -> float:
    """m(x, y) = max{lam : lam y <= x} for invertible positive y.

    Per block this is the smallest eigenvalue of y^{-1/2} x y^{-1/2}; the
    order is blockwise, so the value is the minimum over the blocks.
    """
    out = math.inf
    for x, y in zip(x_blocks, y_blocks):
        r = _inv_sqrt(y)
        z = r @ x @ r
        out = min(out, float(np.linalg.eigvalsh(0.5 * (z + z.conj().T))[0]))
    return out


def distance(x_blocks, y_blocks) -> float:
    """d(x, y) = (1 - m(x,y) m(y,x)) / (1 + m(x,y) m(y,x))."""
    p = order_coefficient(x_blocks, y_blocks) * order_coefficient(y_blocks, x_blocks)
    return (1.0 - p) / (1.0 + p)


def depolarizing_diameter(q: float, n: int = 2) -> float:
    """Image diameter of x -> q x + (1-q) tau(x) 1 on M_n.

    Two orthogonal pure states go to images with eigenvalues alpha and beta
    swapped on their two directions, so d = (alpha^2-beta^2)/(alpha^2+beta^2)
    with alpha = q + (1-q)/n and beta = (1-q)/n.  For n = 2 this is
    2q / (1 + q^2).
    """
    alpha = q + (1.0 - q) / n
    beta = (1.0 - q) / n
    return (alpha * alpha - beta * beta) / (alpha * alpha + beta * beta)


def mixture_rate(retentions, probs) -> float:
    """Ergodic collapse rate exp(E log q) of an i.i.d. depolarizing mixture."""
    return math.exp(sum(p * math.log(q) for q, p in zip(retentions, probs)))


# -- maps given as the JSON payloads the benchmark writes ---------------------


def payload_blocks(raw_blocks) -> list:
    return [
        np.array([[complex(c[0], c[1]) for c in row] for row in blk], dtype=complex)
        for blk in raw_blocks
    ]


def block_weights(algebra: dict) -> list:
    dims, weights = algebra["dims"], algebra["weights"]
    total = sum(c * n for c, n in zip(weights, dims))
    return [c / total for c in weights]


def apply_map(payload: dict, x_blocks) -> list:
    """Apply a ``kraus`` or ``strongly_summable`` map file to an element."""
    if payload["kind"] == "kraus":
        ops = [payload_blocks(raw) for raw in payload["operators"]]
        return [
            sum(k[b] @ x_blocks[b] @ k[b].conj().T for k in ops)
            for b in range(len(x_blocks))
        ]
    if payload["kind"] == "strongly_summable":
        weights = block_weights(payload["algebra"])
        out = [np.zeros_like(x) for x in x_blocks]
        for pair in payload["pairs"]:
            a, m = payload_blocks(pair["a"]), payload_blocks(pair["m"])
            t = sum(c * np.trace(xb @ ab) for c, xb, ab in zip(weights, x_blocks, a))
            out = [o + t * mb for o, mb in zip(out, m)]
        return out
    raise ValueError(f"no reference for map kind {payload['kind']!r}")


def random_pure(dims, rng: np.random.Generator) -> list:
    """A rank-one element in a uniformly chosen block."""
    b = int(rng.integers(len(dims)))
    v = rng.standard_normal(dims[b]) + 1j * rng.standard_normal(dims[b])
    blocks = [np.zeros((n, n), dtype=complex) for n in dims]
    blocks[b] = np.outer(v, v.conj())
    return blocks


def sampled_image_diameter(payload: dict, n_pairs: int, rng: np.random.Generator) -> float:
    """Largest image distance over sampled pairs of pure states."""
    dims = payload["algebra"]["dims"]
    best = 0.0
    for _ in range(n_pairs):
        xa = apply_map(payload, random_pure(dims, rng))
        xb = apply_map(payload, random_pure(dims, rng))
        best = max(best, distance(xa, xb))
    return best


def cone_diameter(payload: dict) -> float:
    """max_{i,j} d(m_i, m_j) over the outputs of a strongly summable map."""
    ms = [payload_blocks(pair["m"]) for pair in payload["pairs"]]
    return max(
        (distance(ms[i], ms[j]) for i in range(len(ms)) for j in range(i + 1, len(ms))),
        default=0.0,
    )


def operator_norm(blocks) -> float:
    return max(float(np.abs(np.linalg.eigvalsh(b)).max()) for b in blocks)

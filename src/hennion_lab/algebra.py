"""Finite tracial algebras: direct sums of matrix blocks with a weighted trace.

An algebra here is ``M = M_{n_1} + ... + M_{n_B}`` (block-diagonal complex
matrices) carrying the faithful tracial state
``tau(x) = sum_i c_i Tr(x_i)`` with strictly positive weights normalized so
``tau(1) = 1``.  Elements are stored as dense per-block matrices, states are
positive elements of unit trace, and all operations are pure functions on
immutable values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .config import TOLS
from .errors import RejectedInputError, ShapeMismatchError

__all__ = [
    "TracialAlgebra",
    "AlgebraElement",
    "State",
    "PositivityCheck",
    "make_algebra",
    "trace",
    "norm",
    "is_positive",
    "support_projection",
    "random_state",
    "random_state_stack",
    "trace_stack",
    "trace_norm_stack",
    "hermitize_stack",
    "checked_state_stack",
    "tensor_algebra",
    "tensor_element",
    "save_element",
    "load_element",
    "element_to_payload",
    "element_from_payload",
]


def _hermitian_block_basis(n: int, weight: float) -> np.ndarray:
    """Orthonormal Hermitian basis of an n-by-n block w.r.t. tau = weight*Tr.

    Ordering: the n diagonal units first, then for each k < l the symmetric
    and antisymmetric off-diagonal combinations.
    """
    out = np.zeros((n * n, n, n), dtype=complex)
    w = 1.0 / np.sqrt(weight)
    idx = 0
    for k in range(n):
        out[idx, k, k] = w
        idx += 1
    s = 1.0 / np.sqrt(2.0 * weight)
    for k in range(n):
        for l in range(k + 1, n):
            out[idx, k, l] = s
            out[idx, l, k] = s
            idx += 1
            out[idx, k, l] = 1j * s
            out[idx, l, k] = -1j * s
            idx += 1
    return out


class TracialAlgebra:
    """A multimatrix algebra with a faithful normalized tracial state.

    Parameters
    ----------
    block_dims:
        Dimensions ``n_1 ... n_B`` of the matrix blocks.
    trace_weights:
        Strictly positive weights ``c_1 ... c_B``; they are rescaled so that
        ``sum_i c_i n_i = 1``.
    """

    def __init__(self, block_dims: Sequence[int], trace_weights: Sequence[float]):
        dims = tuple(int(n) for n in block_dims)
        weights = tuple(float(c) for c in trace_weights)
        if len(dims) == 0:
            raise RejectedInputError("algebra needs at least one block")
        if len(dims) != len(weights):
            raise RejectedInputError("block_dims and trace_weights length mismatch")
        if any(n <= 0 for n in dims):
            raise RejectedInputError("block dimensions must be positive integers")
        if any(c <= 0.0 for c in weights):
            raise RejectedInputError("trace weights must be strictly positive")
        total = sum(c * n for c, n in zip(weights, dims))
        weights = tuple(c / total for c in weights)
        self.block_dims = dims
        self.trace_weights = weights
        self.n_blocks = len(dims)
        self.dim = sum(n * n for n in dims)
        self._basis_offsets = np.cumsum([0] + [n * n for n in dims])
        assert abs(sum(c * n for c, n in zip(self.trace_weights, dims)) - 1.0) < 1e-12

    @cached_property
    def _basis(self) -> list:
        """Per-block ``(n*n, n, n)`` Hermitian bases, built on first use.

        A tensor power that only checks membership never needs them, and a
        64x64 block's basis alone takes 256 MB.
        """
        return [
            _hermitian_block_basis(n, c)
            for n, c in zip(self.block_dims, self.trace_weights)
        ]

    # -- basic values --------------------------------------------------

    def identity(self) -> "AlgebraElement":
        return AlgebraElement(self, [np.eye(n, dtype=complex) for n in self.block_dims])

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, [np.zeros((n, n), dtype=complex) for n in self.block_dims])

    def maximally_mixed(self) -> "State":
        """The identity as a state (tau(1) = 1)."""
        return State.from_element(self.identity())

    def element(self, blocks: Iterable[np.ndarray]) -> "AlgebraElement":
        return AlgebraElement(self, list(blocks))

    def basis_element(self, index: int) -> "AlgebraElement":
        """The index-th member of the trace-orthonormal Hermitian basis."""
        out = self.zero().mutable_blocks()
        for i in range(self.n_blocks):
            lo, hi = self._basis_offsets[i], self._basis_offsets[i + 1]
            if lo <= index < hi:
                out[i] = self._basis[i][index - lo].copy()
                return AlgebraElement(self, out)
        raise RejectedInputError(f"basis index {index} out of range 0..{self.dim - 1}")

    # -- coefficient maps ----------------------------------------------

    def coefficients(self, x: "AlgebraElement") -> np.ndarray:
        """Expansion coefficients of x in the Hermitian basis (complex)."""
        self._check_member(x)
        pieces = []
        for i, blk in enumerate(x.blocks):
            c = self.trace_weights[i]
            # tau(b x) = c * Tr(b x); the basis is Hermitian so no conjugate.
            pieces.append(c * np.einsum("anm,mn->a", self._basis[i], blk))
        return np.concatenate(pieces)

    def from_coefficients(self, coeffs: np.ndarray) -> "AlgebraElement":
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (self.dim,):
            raise ShapeMismatchError(
                f"coefficient vector has shape {coeffs.shape}, expected ({self.dim},)"
            )
        blocks = []
        for i in range(self.n_blocks):
            lo, hi = self._basis_offsets[i], self._basis_offsets[i + 1]
            blocks.append(np.einsum("a,anm->nm", coeffs[lo:hi], self._basis[i]))
        return AlgebraElement(self, blocks)

    # -- compatibility --------------------------------------------------

    def compatible(self, other: "TracialAlgebra") -> bool:
        return (
            self.block_dims == other.block_dims
            and all(
                abs(a - b) <= 1e-12
                for a, b in zip(self.trace_weights, other.trace_weights)
            )
        )

    def _check_member(self, x: "AlgebraElement") -> None:
        if x.algebra is not self and not self.compatible(x.algebra):
            raise ShapeMismatchError("element belongs to an incompatible algebra")

    def __repr__(self) -> str:
        return f"TracialAlgebra(dims={list(self.block_dims)}, weights={list(self.trace_weights)})"


class AlgebraElement:
    """A block-diagonal complex matrix together with its owning algebra."""

    __slots__ = ("algebra", "blocks")

    def __init__(self, algebra: TracialAlgebra, blocks: Sequence[np.ndarray]):
        if len(blocks) != algebra.n_blocks:
            raise ShapeMismatchError(
                f"expected {algebra.n_blocks} blocks, got {len(blocks)}"
            )
        frozen = []
        for n, blk in zip(algebra.block_dims, blocks):
            arr = np.array(blk, dtype=complex, copy=True)
            if arr.shape != (n, n):
                raise ShapeMismatchError(
                    f"block of shape {arr.shape} does not match dimension {n}"
                )
            arr.setflags(write=False)
            frozen.append(arr)
        self.algebra = algebra
        self.blocks = tuple(frozen)

    def mutable_blocks(self) -> list:
        return [blk.copy() for blk in self.blocks]

    # -- arithmetic ------------------------------------------------------

    def _binary(self, other: "AlgebraElement", op) -> "AlgebraElement":
        self.algebra._check_member(other)
        return AlgebraElement(
            self.algebra, [op(a, b) for a, b in zip(self.blocks, other.blocks)]
        )

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._binary(other, np.add)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._binary(other, np.subtract)

    def __mul__(self, scalar: complex) -> "AlgebraElement":
        return AlgebraElement(self.algebra, [scalar * blk for blk in self.blocks])

    __rmul__ = __mul__

    def __neg__(self) -> "AlgebraElement":
        return self * (-1.0)

    def __matmul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._binary(other, np.matmul)

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, [blk.conj().T for blk in self.blocks])

    @property
    def H(self) -> "AlgebraElement":
        return self.adjoint()

    def hermitize(self) -> "AlgebraElement":
        """Symmetrize when the anti-Hermitian part is tiny, reject otherwise."""
        blocks = hermitize_stack([blk[None] for blk in self.blocks])
        return AlgebraElement(self.algebra, [blk[0] for blk in blocks])

    def __repr__(self) -> str:
        return f"AlgebraElement(dims={list(self.algebra.block_dims)})"


@dataclass(frozen=True)
class PositivityCheck:
    """Outcome of a semidefiniteness test, with the offending eigenpair."""

    positive: bool
    min_eigenvalue: float
    witness_block: int | None = None
    witness_vector: np.ndarray | None = field(default=None, repr=False)

    def __bool__(self) -> bool:
        return self.positive


@dataclass(frozen=True)
class State:
    """A positive unit-trace element, tagged by invertibility."""

    element: AlgebraElement
    min_eigenvalue: float
    component_tag: str  # "invertible" or "singular"

    @staticmethod
    def from_element(x: AlgebraElement) -> "State":
        blocks, lo, hi = checked_state_stack(x.algebra, [blk[None] for blk in x.blocks])
        lo, hi = float(lo[0]), float(hi[0])
        tag = "invertible" if lo > TOLS.rank_tol * max(hi, 1.0) else "singular"
        return State(
            element=AlgebraElement(x.algebra, [blk[0] for blk in blocks]),
            min_eigenvalue=lo,
            component_tag=tag,
        )

    @property
    def is_invertible(self) -> bool:
        return self.component_tag == "invertible"

    @property
    def algebra(self) -> TracialAlgebra:
        return self.element.algebra

    @property
    def blocks(self):
        return self.element.blocks


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def make_algebra(
    block_dims: Sequence[int], raw_weights: Sequence[float]
) -> TracialAlgebra:
    """Build a tracial algebra, rescaling the weights so tau(1) = 1."""
    return TracialAlgebra(block_dims, raw_weights)


def trace(algebra: TracialAlgebra, x: AlgebraElement) -> complex:
    """tau(x) = sum_i c_i Tr(x_i)."""
    algebra._check_member(x)
    return complex(
        sum(
            c * np.trace(blk)
            for c, blk in zip(algebra.trace_weights, x.blocks)
        )
    )


def norm(algebra: TracialAlgebra, x: AlgebraElement, which: str = "one") -> float:
    """Trace norm, Hilbert-Schmidt norm or operator norm of x.

    ``one`` is ``tau(|x|)`` via singular values per block, ``two`` is
    ``tau(x* x)**0.5`` and ``inf`` is the largest singular value.
    """
    algebra._check_member(x)
    if which == "one":
        return float(trace_norm_stack(algebra, [blk[None] for blk in x.blocks])[0])
    if which == "two":
        return float(
            np.sqrt(
                sum(
                    c * np.sum(np.abs(blk) ** 2)
                    for c, blk in zip(algebra.trace_weights, x.blocks)
                )
            )
        )
    if which == "inf":
        return float(
            max(
                np.linalg.svd(blk, compute_uv=False)[0] if blk.size else 0.0
                for blk in x.blocks
            )
        )
    raise RejectedInputError(f"unknown norm kind {which!r}")


def is_positive(
    algebra: TracialAlgebra,
    x: AlgebraElement,
    tol: float | None = None,
) -> PositivityCheck:
    """Semidefiniteness test with an eigenpair witness on failure.

    The input must be Hermitian up to the symmetrization tolerance; the test
    passes when every block eigenvalue is at least ``-tol``.
    """
    if tol is None:
        tol = TOLS.pos_tol
    x = x.hermitize()
    worst = np.inf
    bad_block = None
    vec = None
    for i, blk in enumerate(x.blocks):
        w, v = np.linalg.eigh(blk)
        if w[0] < worst:
            worst, bad_block, vec = float(w[0]), i, v[:, 0]
    ok = bool(worst >= -tol)
    return PositivityCheck(
        positive=ok,
        min_eigenvalue=worst,
        witness_block=None if ok else bad_block,
        witness_vector=None if ok else vec,
    )


def support_projection(
    algebra: TracialAlgebra,
    x: AlgebraElement,
    rank_tol: float | None = None,
) -> AlgebraElement:
    """Projection onto the span of eigenvectors above the spectral cutoff.

    The cutoff is ``rank_tol`` times the largest eigenvalue across all
    blocks of x (which must be positive semidefinite).
    """
    if rank_tol is None:
        rank_tol = TOLS.rank_tol
    x = x.hermitize()
    decomps = [np.linalg.eigh(blk) for blk in x.blocks]
    lam_max = max(float(w[-1]) for w, _ in decomps)
    cut = rank_tol * max(lam_max, 0.0)
    blocks = []
    for w, v in decomps:
        keep = v[:, w > cut]
        blocks.append(keep @ keep.conj().T)
    return AlgebraElement(algebra, blocks)


def random_state(
    algebra: TracialAlgebra,
    kind: str,
    rng: np.random.Generator,
    rank: int | None = None,
) -> State:
    """Draw a state of a prescribed kind.

    ``pure`` is a normalized rank-one projector with a Gaussian vector in a
    uniformly chosen block (an extreme point of the state space), ``full``
    is a normalized Wishart draw shifted by 1e-3 times the identity so it is
    invertible, ``boundary`` zeroes the smallest eigenvalue of a full draw,
    and ``ranked`` uses a rank-``rank`` Wishart factor in a uniformly chosen
    block of sufficient dimension.
    """
    x = AlgebraElement(algebra, [blk[0] for blk in _random_stacks(algebra, [kind], rng, rank)])
    t = trace(algebra, x).real
    return State.from_element(x * (1.0 / t))


def _random_stacks(
    algebra: TracialAlgebra,
    kinds: Sequence[str],
    rng: np.random.Generator,
    rank: int | None = None,
) -> list:
    """The unnormalized blocks of one ``random_state`` draw per kind, as stacks.

    The Gaussians are drawn kind by kind, in order.  Each boundary draw then
    zeroes the smallest eigenvalue of its full draw, with one stacked
    ``eigh`` per block over all boundary draws.
    """
    dims = algebra.block_dims
    draws = []
    for kind in kinds:
        if kind == "pure":
            b = int(rng.integers(algebra.n_blocks))
            v = rng.standard_normal(dims[b]) + 1j * rng.standard_normal(dims[b])
            blocks = [np.zeros((n, n), dtype=complex) for n in dims]
            blocks[b] = np.outer(v, v.conj())
        elif kind == "ranked":
            if rank is None or rank < 1:
                raise RejectedInputError("ranked kind needs rank >= 1")
            eligible = [i for i, n in enumerate(dims) if n >= rank]
            if not eligible:
                raise RejectedInputError(f"no block can host rank {rank}")
            b = eligible[int(rng.integers(len(eligible)))]
            g = rng.standard_normal((dims[b], rank)) + 1j * rng.standard_normal(
                (dims[b], rank)
            )
            blocks = [np.zeros((n, n), dtype=complex) for n in dims]
            blocks[b] = g @ g.conj().T
        elif kind in ("full", "boundary"):
            blocks = []
            for n in dims:
                g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                blocks.append(g.conj().T @ g + 1e-3 * np.eye(n))
        else:
            raise RejectedInputError(f"unknown state kind {kind!r}")
        draws.append(blocks)
    stacks = [np.stack([d[b] for d in draws]) for b in range(algebra.n_blocks)]
    edge = np.array([j for j, kind in enumerate(kinds) if kind == "boundary"], dtype=int)
    if len(edge):
        decomps = [np.linalg.eigh(blk[edge]) for blk in stacks]
        # per draw, the block holding the smallest eigenvalue (the first on ties)
        smallest = np.argmin([w[:, 0] for w, _ in decomps], axis=0)
        for b, (w, v) in enumerate(decomps):
            mine = smallest == b
            w, v = w[mine], v[mine]
            w[:, 0] = 0.0
            stacks[b][edge[mine]] = (v * w[:, None, :]) @ v.conj().swapaxes(1, 2)
    return stacks


# ---------------------------------------------------------------------------
# stacks: N elements held as one (N, n, n) array per block
# ---------------------------------------------------------------------------


def trace_stack(algebra: TracialAlgebra, stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Real parts of tau over a stack, shape (N,)."""
    return sum(
        c * np.trace(blk, axis1=1, axis2=2).real
        for c, blk in zip(algebra.trace_weights, stacks)
    )


def trace_norm_stack(algebra: TracialAlgebra, stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Trace norms ``tau(|x|)`` over a stack, shape (N,): one SVD per block."""
    return sum(
        c * np.linalg.svd(blk, compute_uv=False).sum(axis=1)
        for c, blk in zip(algebra.trace_weights, stacks)
    )


def hermitize_stack(stacks: Sequence[np.ndarray]) -> list:
    """``AlgebraElement.hermitize`` on every element of a stack.

    The operator norm only scales a tolerance of at least ``herm_tol``, so
    it is computed only for elements whose asymmetry exceeds ``herm_tol``.
    """
    flip = [blk.conj().swapaxes(1, 2) for blk in stacks]
    asym = np.max([np.abs(b - f).max(axis=(1, 2)) for b, f in zip(stacks, flip)], axis=0)
    suspect = asym > TOLS.herm_tol
    if suspect.any():
        scale = np.max(
            [np.linalg.norm(blk[suspect], 2, axis=(1, 2)) for blk in stacks], axis=0
        )
        bad = asym[suspect] > TOLS.herm_tol * np.maximum(1.0, scale)
        if bad.any():
            raise RejectedInputError(
                f"element is not Hermitian (asymmetry {asym[suspect][bad][0]:.3e}"
                " beyond tolerance)"
            )
    return [(b + f) / 2.0 for b, f in zip(stacks, flip)]


def checked_state_stack(
    algebra: TracialAlgebra, stacks: Sequence[np.ndarray]
) -> tuple[list, np.ndarray, np.ndarray]:
    """The checks of ``State.from_element`` on every element of a stack.

    Symmetrizes (``hermitize_stack``), then rejects a trace off one by more
    than ``trace_tol`` and an eigenvalue below ``-pos_tol`` (relative to
    the largest when that exceeds one).  Returns the symmetrized stack and
    the smallest and the largest eigenvalue of each element.
    ``State.from_element`` is this on a stack of one.
    """
    stacks = hermitize_stack(stacks)
    t = trace_stack(algebra, stacks)
    off = np.abs(t - 1.0) > TOLS.trace_tol
    if off.any():
        raise RejectedInputError(f"state trace is {t[off][0]}, expected 1")
    eigs = [np.linalg.eigvalsh(blk) for blk in stacks]
    lo = np.min([w[:, 0] for w in eigs], axis=0)
    hi = np.max([w[:, -1] for w in eigs], axis=0)
    bad = lo < -TOLS.pos_tol * np.maximum(1.0, hi)
    if bad.any():
        raise RejectedInputError(f"state has negative eigenvalue {lo[bad][0]:.3e}")
    return stacks, lo, hi


def random_state_stack(
    algebra: TracialAlgebra, kinds: Sequence[str], rng: np.random.Generator
) -> list:
    """One ``random_state`` draw per entry of ``kinds``, as a stack.

    The draws consume ``rng`` exactly as ``random_state`` called once per
    kind in order would, and are normalized and symmetrized the same way,
    without building a ``State`` per draw.
    """
    stacks = _random_stacks(algebra, kinds, rng)
    # Python division, so that a zero trace raises as it does in random_state
    scale = np.array([1.0 / float(t) for t in trace_stack(algebra, stacks)])[:, None, None]
    return hermitize_stack([blk * scale for blk in stacks])


# ---------------------------------------------------------------------------
# tensor constructions (used by the correlated-chain module)
# ---------------------------------------------------------------------------


def tensor_algebra(a: TracialAlgebra, b: TracialAlgebra) -> TracialAlgebra:
    """Tensor product algebra: blocks are pairs, weights multiply."""
    dims = [na * nb for na in a.block_dims for nb in b.block_dims]
    weights = [ca * cb for ca in a.trace_weights for cb in b.trace_weights]
    return TracialAlgebra(dims, weights)


def tensor_element(
    ab: TracialAlgebra, x: AlgebraElement, y: AlgebraElement
) -> AlgebraElement:
    """Embed x (tensor) y into the tensor product algebra ``ab``."""
    blocks = [
        np.kron(bx, by) for bx in x.blocks for by in y.blocks
    ]
    return AlgebraElement(ab, blocks)


# ---------------------------------------------------------------------------
# matrix file format
# ---------------------------------------------------------------------------


def _complex_to_pairs(blk: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in blk]


def _pairs_to_complex(rows: list, n: int) -> np.ndarray:
    arr = np.empty((n, n), dtype=complex)
    if len(rows) != n:
        raise RejectedInputError("block row count does not match declared dimension")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise RejectedInputError("block column count does not match dimension")
        for j, pair in enumerate(row):
            arr[i, j] = complex(float(pair[0]), float(pair[1]))
    return arr


def element_to_payload(x: AlgebraElement) -> dict:
    return {
        "algebra": {
            "dims": list(x.algebra.block_dims),
            "weights": [float(c) for c in x.algebra.trace_weights],
        },
        "blocks": [_complex_to_pairs(blk) for blk in x.blocks],
    }


def element_from_payload(payload: dict) -> AlgebraElement:
    try:
        dims = payload["algebra"]["dims"]
        weights = payload["algebra"]["weights"]
        raw_blocks = payload["blocks"]
    except (KeyError, TypeError) as exc:
        raise RejectedInputError(f"malformed matrix payload: {exc}") from exc
    algebra = make_algebra(dims, weights)
    if len(raw_blocks) != algebra.n_blocks:
        raise RejectedInputError("payload block count mismatch")
    blocks = [
        _pairs_to_complex(rows, n) for rows, n in zip(raw_blocks, algebra.block_dims)
    ]
    return AlgebraElement(algebra, blocks)


def save_element(path: str, x: AlgebraElement) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(element_to_payload(x), fh, sort_keys=True)
        fh.write("\n")


def load_element(path: str) -> AlgebraElement:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return element_from_payload(payload)

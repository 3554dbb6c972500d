"""Numerical laboratory for projective-metric contraction of positive maps
on finite tracial algebras, ergodic channel compositions, and the
correlated chain states they generate."""

from .algebra import (
    AlgebraElement,
    State,
    TracialAlgebra,
    make_algebra,
    norm,
    is_positive,
    random_state,
    support_projection,
    tensor_algebra,
    tensor_element,
    trace,
)
from .config import TOLS
from .hennion import (
    LineDecomposition,
    MQuantityResult,
    classify_component,
    hennion_distance,
    hennion_distance_many,
    line_decomposition,
    m_quantity,
    m_quantity_bisection,
    m_quantity_inf_sampling,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "State",
    "TracialAlgebra",
    "make_algebra",
    "norm",
    "is_positive",
    "random_state",
    "support_projection",
    "tensor_algebra",
    "tensor_element",
    "trace",
    "TOLS",
    "LineDecomposition",
    "MQuantityResult",
    "classify_component",
    "hennion_distance",
    "hennion_distance_many",
    "line_decomposition",
    "m_quantity",
    "m_quantity_bisection",
    "m_quantity_inf_sampling",
    "__version__",
]

"""Essential paths on trees and ADE diagrams.

Build a graph, compute its Perron-Frobenius data and essential-path bases,
multiply essential paths with the graded product, and machine-check the
weak-bialgebra structure of the graded endomorphism algebra.
"""

from .errors import (
    EsspathError,
    InputError,
    NonEssentialInputWarning,
    NumericError,
    UnsupportedGraphError,
)
from .graphs import (
    FusedMatrices,
    Graph,
    PerronData,
    build_ade,
    builtin_graph,
    fused_matrices,
    parse_graph,
    perron_frobenius,
)
from .paths import (
    PathVector,
    TensorPathVector,
    annihilate,
    concat,
    elementary,
    enumerate_paths,
    grouplike_coproduct,
    grouplike_counit,
    inner,
    reverse_star,
    tensor,
    unit,
)
from .essential import (
    Decomposition,
    EssentialCellBasis,
    EssentialSpace,
    bullet,
    coproduct_paths,
    decompose,
    dims,
    essential_basis,
    project,
    space,
    structure_constants,
    unit_essential,
)
from .endo import (
    CheckReport,
    EndoTensor,
    conv_bullet,
    convolution_coproduct,
    coproduct,
    counit,
    unit_endo,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Kazhdan-Lusztig polynomials, W-graphs and KL-basis structure constants
for finite Coxeter groups, with exact arithmetic and positivity checks."""

from .ring import (
    CoefficientOverflowError,
    LaurentPoly,
    MixedParityError,
    NotSymmetricError,
    QPoly,
    SymLaurentPoly,
    is_unimodal,
    qpoly_from_sym,
)
from .coxeter import (
    CoxeterMatrix,
    GroupTable,
    InfiniteTypeError,
    RankTooLargeError,
    build_group,
    group_from_name,
    preset_matrix,
)
from .klbase import KLStore, WGraph, build_wgraph, extremal_pairs
from .hecke import (
    HColumn,
    NoSolutionError,
    PolyStore,
    c_in_t_basis,
    c_in_t_basis_oracle,
    column,
    t_inverse,
    t_mult_gen,
    tcombo_mult,
)
from .checks import (
    CheckReport,
    check_p1,
    check_p2,
    check_p3,
    check_strategy_invariance,
    check_w0_identity,
)
from .dihedral import (
    DihedralProduct,
    DihedralWord,
    InvalidIndexError,
    crosscheck_dihedral,
    finite_product,
    infinite_product,
    triangle_table,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

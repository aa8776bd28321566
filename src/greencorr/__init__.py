"""Finite groupoid calculus and the Green correspondence over prime fields.

The package is organized in layers: permutation groups (permgroups), finite
groupoids with isocommas and Mackey squares (groupoids), the boundary
operator splitting isocommas over a subgroup (boundary), exact linear algebra
over GF(p) (linalg), modules over group algebras with induction and
restriction (modules), Krull-Schmidt decomposition with certified
indecomposability and vertices (decompose), and the quotient-category Green
correspondence engine (green).  The `green` console script drives it all
from scenario config files.
"""

__version__ = "0.1.0"

from .decompose import Run, decompose, is_relatively_projective, vertex
from .errors import InputError, TheoremViolationError, UndecidedError
from .green import (
    SCHEMA_VERSION,
    GreenReport,
    Scenario,
    correspondent_down,
    correspondent_up,
    quotient_hom_dim,
    verify_scenario,
)
from .modules import FpModule, hom_space, induce, restrict
from .permgroups import PermGroup, SubgroupEmbedding, closure, subgroup

__all__ = (
    "InputError",
    "TheoremViolationError",
    "UndecidedError",
    "SCHEMA_VERSION",
    "GreenReport",
    "Scenario",
    "FpModule",
    "PermGroup",
    "SubgroupEmbedding",
    "closure",
    "subgroup",
    "hom_space",
    "induce",
    "restrict",
    "Run",
    "decompose",
    "vertex",
    "is_relatively_projective",
    "quotient_hom_dim",
    "correspondent_up",
    "correspondent_down",
    "verify_scenario",
    "__version__",
)

"""Finite set-theoretic Yang-Baxter solutions, their cubical
(co)homology, and cocycle state-sum invariants of virtual closed
braids."""

from . import reference
from .errors import (
    ArityMismatch,
    BraidSyntaxError,
    ColoringIncomplete,
    ColoringInconsistent,
    IndexOutOfRange,
    ModulusMismatch,
    NotACocycle,
    NotAUnit,
    NotBiquandle,
    ProductNotZero,
    ResourceBound,
    YBKError,
)
from .modalg import (
    GroupRingElement,
    IntegerMatrix,
    SmithForm,
    kernel_mod,
    smith_normal_form,
    solve_mod,
)
from .ybcore import (
    BiquandleWitness,
    BirackReport,
    CochainTable,
    FiniteYBSet,
    LinearForm,
    extend,
    make_affine,
    make_block,
    make_omega,
    omega_extension_check,
    swap_set,
)
from .ybhomology import (
    CohomologyReport,
    CubeColoring,
    CubeEdge,
    FormalChain,
    boundary,
    coboundary,
    coboundary_matrix,
    cocycle_space,
    cohomology_group,
    color_cube,
    face_tuple,
    is_coboundary,
    is_cocycle,
    obstruction_cocycle,
)
from .vknots import (
    BraidGenerator,
    BraidWord,
    ColoringSet,
    InvariantValue,
    apply_word,
    colorings,
    count_colorings,
    equivalent_words,
    parse_braid,
    state_sum,
)

__version__ = "0.1.0"

"""3D Jacobi stencil (paper §4.1, Figure 2): MSG and CKD versions."""

from .base import STENCIL_OOB, IterationMonitor, JacobiBase, block_initial
from .decomp import (
    DIRECTIONS,
    BlockSpec,
    choose_grid,
    factor_triples,
    opposite,
)
from .driver import (
    MODES,
    PAPER_DOMAIN,
    PAPER_VR,
    StencilResult,
    gather_grid,
    run_stencil,
    stencil_improvement,
)
from .jacobi_ckd import JacobiCkd
from .jacobi_msg import JacobiMsg
from .reference import block_update, jacobi_reference, jacobi_step

__all__ = [
    "run_stencil",
    "stencil_improvement",
    "gather_grid",
    "StencilResult",
    "JacobiMsg",
    "JacobiCkd",
    "JacobiBase",
    "IterationMonitor",
    "BlockSpec",
    "DIRECTIONS",
    "opposite",
    "choose_grid",
    "factor_triples",
    "block_initial",
    "jacobi_reference",
    "jacobi_step",
    "block_update",
    "STENCIL_OOB",
    "MODES",
    "PAPER_DOMAIN",
    "PAPER_VR",
]

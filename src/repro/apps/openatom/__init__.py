"""OpenAtom PairCalculator mini-app (paper §5, Figures 4 and 5)."""

from .config import OPENATOM_OOB, POINT_BYTES, OpenAtomConfig
from .driver import (
    MODES,
    OpenAtomMonitor,
    OpenAtomResult,
    abe_2cpn,
    run_openatom,
)
from .gspace import GSpaceBase
from .paircalc import Ortho, PairCalcBase
from .variants import GSpaceCkd, GSpaceMsg, PairCalcCkd, PairCalcMsg

__all__ = [
    "OpenAtomConfig",
    "OpenAtomResult",
    "OpenAtomMonitor",
    "run_openatom",
    "abe_2cpn",
    "GSpaceBase",
    "GSpaceMsg",
    "GSpaceCkd",
    "PairCalcBase",
    "PairCalcMsg",
    "PairCalcCkd",
    "Ortho",
    "OPENATOM_OOB",
    "POINT_BYTES",
    "MODES",
]

"""Simulated MPI: the baseline communication stacks of the paper's
evaluation (two-sided point-to-point with tag matching and
eager/rendezvous protocols; one-sided windows with fence, PSCW, and
lock-unlock synchronization)."""

from .flavors import MPIError, regime_for, resolve_flavor, uses_rendezvous
from .p2p import ANY_SOURCE, ANY_TAG, Arrival, Matcher, RecvPost
from .rma import RMAError, Win
from .sim_mpi import CTRL_BYTES, MPIWorld, Rank

__all__ = [
    "MPIWorld",
    "Rank",
    "Win",
    "Matcher",
    "RecvPost",
    "Arrival",
    "ANY_SOURCE",
    "ANY_TAG",
    "CTRL_BYTES",
    "MPIError",
    "RMAError",
    "resolve_flavor",
    "regime_for",
    "uses_rendezvous",
]

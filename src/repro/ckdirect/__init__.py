"""CkDirect: unsynchronized one-sided communication (the paper's
primary contribution).

The interface mirrors the paper's §2 exactly — see
:mod:`repro.ckdirect.api` for the function-by-function mapping — and
the two platform implementations (Infiniband polling queue with
out-of-band sentinels; Blue Gene/P DCMF completion callbacks) are
selected by the machine the runtime was built with.

Extensions from the paper's future-work list live under
:mod:`repro.ckdirect.ext`.
"""

from .api import (
    CkDirect_assocLocal,
    CkDirect_createHandle,
    CkDirect_put,
    CkDirect_ready,
    CkDirect_readyMark,
    CkDirect_readyPollQ,
    assoc_local,
    create_handle,
    put,
    ready,
    ready_mark,
    ready_poll_q,
    register_handle,
)
from .handle import (
    ChannelState,
    ChannelStateError,
    CkDirectError,
    CkDirectHandle,
    PutRaceError,
    SentinelError,
)
from ..charm.errors import PutMismatchError

__all__ = [
    "create_handle",
    "assoc_local",
    "put",
    "ready",
    "ready_mark",
    "ready_poll_q",
    "register_handle",
    "CkDirect_createHandle",
    "CkDirect_assocLocal",
    "CkDirect_put",
    "CkDirect_ready",
    "CkDirect_readyMark",
    "CkDirect_readyPollQ",
    "CkDirectHandle",
    "ChannelState",
    "CkDirectError",
    "ChannelStateError",
    "SentinelError",
    "PutMismatchError",
    "PutRaceError",
]

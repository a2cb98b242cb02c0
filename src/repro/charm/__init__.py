"""A Charm++-style message-driven runtime on the discrete-event core.

Public surface:

* :class:`Runtime` — machine + PEs + arrays; the entry point.
* :class:`Chare` — base class for message-driven objects.
* :class:`ChareArray` / proxies — N-dimensional chare collections.
* :class:`CkCallback` — deliverable continuations.
* :class:`Payload` — bulk entry-method arguments (packed or zero-pack).
* Mappings — :class:`BlockMap`, :class:`CustomMap`.
"""

from .array import ArrayProxy, ChareArray, ElementProxy
from .callback import CkCallback
from .chare import Chare
from .errors import (
    CharmError,
    ContextError,
    EntryMethodError,
    MappingError,
    ReductionError,
)
from .mapping import BlockMap, CustomMap, Mapping, linear_index
from .message import Message, Payload
from .pe import PE
from .reduction import REDUCERS, ReductionManager
from .runtime import Runtime
from .scheduler import DirectItem, SchedulerQueue
from .section import ArraySection

__all__ = [
    "Runtime",
    "Chare",
    "ChareArray",
    "ArraySection",
    "ArrayProxy",
    "ElementProxy",
    "CkCallback",
    "Payload",
    "Message",
    "PE",
    "Mapping",
    "BlockMap",
    "CustomMap",
    "linear_index",
    "ReductionManager",
    "REDUCERS",
    "SchedulerQueue",
    "DirectItem",
    "CharmError",
    "ContextError",
    "EntryMethodError",
    "MappingError",
    "ReductionError",
]

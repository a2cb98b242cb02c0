"""CkDirect extensions — two of the paper's §6 future-work features:
accumulating (reduction) channels and persistent-channel discovery."""

from .accumulate import ACCUMULATE_OPS, AccumulateHandle, create_accumulate_handle
from .autotune import ChannelAdvisor, ChannelCandidate, FlowStats

__all__ = [
    "ChannelAdvisor",
    "ChannelCandidate",
    "FlowStats",
    "AccumulateHandle",
    "create_accumulate_handle",
    "ACCUMULATE_OPS",
]

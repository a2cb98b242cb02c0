"""Picklable sweep-point descriptions and results.

A *sweep* is a set of independent simulation runs — one per
``(kind, machine, mode, n_pes, params)`` point — whose results are
assembled into one table or figure.  :class:`RunSpec` describes one
point in a form that

* **pickles** cheaply (strings/ints/tuples only, no ``MachineParams``
  or runtime objects), so it can cross a process boundary to a worker;
* **hashes and orders** deterministically (:attr:`RunSpec.key`), so
  sweep results are always merged by spec key, never by completion
  order — the invariant that makes ``--jobs N`` output byte-identical
  to a serial run.

:class:`RunResult` is the worker's reply: plain values plus error /
timing / trace payloads.  A failed point carries its traceback in
``error``; :meth:`RunResult.unwrap` re-raises it in the parent.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from ..network.params import MACHINES, MachineParams

#: Engine-schema version folded into every :meth:`RunSpec.digest`.
#:
#: The content-addressed result cache assumes *identical spec ⇒
#: identical result bytes*.  That holds across ``--jobs``, ``--eventq``
#: and explicit ``--shards`` counts (every event-queue implementation
#: pops the same ``(time, priority, seq)`` total order, proven by the
#: eventq property suite, so swapping queues cannot change bytes and
#: does NOT bump this constant).  On Infiniband the default serial
#: path can differ from sharded runs, because it reserves receiver
#: NICs in send order.  It does NOT hold across engine changes: any
#: change that alters simulated timings, event ordering, point values,
#: or the canonical result payload must bump this constant, which
#: changes every digest and cleanly invalidates all previously cached
#: results.
#:
#: History: 2 — scheduling became one-way, so a faulted run's
#: superseded retransmit timers fire as no-op events instead of being
#: withdrawn; a chaos point's ``events`` (and its final clock) grew,
#: while clean runs kept every byte.
ENGINE_SCHEMA = 2


class SweepError(RuntimeError):
    """Raised for sweep misuse or failed sweep points."""


def _canon(obj: Any) -> Any:
    """Normalize a value for canonical JSON encoding.

    Dicts must have string keys; tuples become lists; numpy scalars
    collapse to their exact Python ``int``/``float``/``bool`` values.
    Anything else (objects, sets, NaN later via ``allow_nan=False``)
    is rejected — a digest over unstable input is worse than an error.
    """
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if not isinstance(k, str):
                raise SweepError(
                    f"canonical encoding requires string keys, got {k!r}"
                )
            out[k] = _canon(v)
        return out
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, str):
        return obj
    if isinstance(obj, int):
        return int(obj)
    if isinstance(obj, float):
        return float(obj)
    # numpy scalars (np.int64, np.float64, np.bool_) expose item();
    # checked lazily so this module stays importable without numpy.
    item = getattr(obj, "item", None)
    if callable(item):
        got = item()
        if isinstance(got, (bool, int, float, str)):
            return _canon(got)
    raise SweepError(
        f"value {obj!r} of type {type(obj).__name__} cannot be "
        "canonically encoded (use plain ints/floats/strings/lists/dicts)"
    )


def canonical_json(obj: Any) -> str:
    """Canonical JSON: sorted keys, minimal separators, ASCII, no NaN.

    Two structurally equal inputs (regardless of dict insertion order
    or tuple-vs-list) always produce the same string — the property
    both :meth:`RunSpec.digest` and the serve layer's cached result
    payloads rest on.
    """
    return json.dumps(
        _canon(obj),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )


def canonical_bytes(obj: Any) -> bytes:
    """:func:`canonical_json` encoded as UTF-8 bytes."""
    return canonical_json(obj).encode("utf-8")


@dataclass(frozen=True, order=True)
class RunSpec:
    """One independent point of a sweep.

    ``params`` is a sorted tuple of ``(key, value)`` pairs so the spec
    stays hashable, comparable, and picklable; build specs with
    :meth:`make` to get the normalization for free.
    """

    kind: str        # registered point-function name (see sweep.points)
    machine: str     # machine preset name (a MACHINES key)
    mode: str        # stack / app variant ("msg", "ckd", "charm", ...)
    n_pes: int       # PE count (0 where the point fixes it itself)
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(
        cls, kind: str, machine: str, mode: str = "", n_pes: int = 0, **params: Any
    ) -> "RunSpec":
        """Build a spec, normalizing keyword params into sorted pairs."""
        return cls(kind, machine, mode, n_pes, tuple(sorted(params.items())))

    @property
    def kwargs(self) -> Dict[str, Any]:
        """The params as a keyword dict."""
        return dict(self.params)

    @property
    def key(self) -> tuple:
        """The deterministic merge key (the full identifying tuple)."""
        return (self.kind, self.machine, self.mode, self.n_pes, self.params)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (the serve API's wire representation)."""
        return {
            "kind": self.kind,
            "machine": self.machine,
            "mode": self.mode,
            "n_pes": self.n_pes,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "RunSpec":
        """Parse the wire form back into a normalized spec.

        Validates shape strictly (the serve layer feeds this untrusted
        request bodies); unknown keys, non-string identifiers, and
        non-dict params are all rejected with :class:`SweepError`.
        """
        if not isinstance(d, dict):
            raise SweepError(f"spec must be an object, got {type(d).__name__}")
        unknown = set(d) - {"kind", "machine", "mode", "n_pes", "params"}
        if unknown:
            raise SweepError(f"unknown spec fields: {sorted(unknown)}")
        kind = d.get("kind")
        machine = d.get("machine")
        if not isinstance(kind, str) or not kind:
            raise SweepError("spec requires a non-empty string 'kind'")
        if not isinstance(machine, str) or not machine:
            raise SweepError("spec requires a non-empty string 'machine'")
        mode = d.get("mode", "")
        if not isinstance(mode, str):
            raise SweepError("spec 'mode' must be a string")
        n_pes = d.get("n_pes", 0)
        if isinstance(n_pes, bool) or not isinstance(n_pes, int) or n_pes < 0:
            raise SweepError("spec 'n_pes' must be a non-negative integer")
        params = d.get("params", {})
        if not isinstance(params, dict):
            raise SweepError("spec 'params' must be an object")
        return cls.make(kind, machine, mode, n_pes, **params)

    def digest(self) -> str:
        """Stable content address of this point's *result*.

        The digest hashes the canonical JSON of the spec fields plus
        :data:`ENGINE_SCHEMA`.  It is therefore

        * independent of ``params`` insertion order (params are sorted
          both by :meth:`make` and by canonical encoding),
        * independent of ``--jobs`` / ``--shards`` / env knobs (none of
          those are spec fields).  ``--jobs`` and ``--eventq`` never
          change result bytes, and explicit ``--shards`` counts agree
          with each other, but on Infiniband the default serial path
          can differ from sharded runs, so one store should see one
          shard setting, and
        * versioned: bumping :data:`ENGINE_SCHEMA` changes every
          digest, so a cache can never serve results computed by an
          older engine.
        """
        payload = canonical_json({"schema": ENGINE_SCHEMA, "spec": self.to_dict()})
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Compact human-readable form for progress/error messages."""
        parts = [self.kind, self.machine]
        if self.mode:
            parts.append(self.mode)
        if self.n_pes:
            parts.append(f"p{self.n_pes}")
        return "/".join(parts)

    def resolve_machine(self) -> MachineParams:
        """Reconstruct the MachineParams this point runs on.

        The preset is looked up by name; a ``cores_per_node`` param
        (see :func:`machine_overrides`) is applied on top — the only
        machine variation the paper's experiments use (Abe at 2
        cores/node for the OpenAtom runs).
        """
        try:
            machine = MACHINES[self.machine]
        except KeyError:
            raise SweepError(f"unknown machine preset {self.machine!r}") from None
        cpn = self.kwargs.get("cores_per_node")
        if cpn is not None and cpn != machine.cores_per_node:
            machine = dataclasses.replace(machine, cores_per_node=int(cpn))
        return machine


def machine_overrides(machine: MachineParams) -> Dict[str, Any]:
    """Express a MachineParams as spec params on top of its preset.

    Returns ``{}`` when ``machine`` *is* its preset, or
    ``{"cores_per_node": n}`` for the paper's cores-per-node variants.
    Anything else cannot cross a process boundary by name and is
    rejected.
    """
    base = MACHINES.get(machine.name)
    if base is None:
        raise SweepError(
            f"machine {machine.name!r} is not a registered preset; "
            "sweep specs carry machines by preset name"
        )
    if machine == base:
        return {}
    if dataclasses.replace(base, cores_per_node=machine.cores_per_node) == machine:
        return {"cores_per_node": machine.cores_per_node}
    raise SweepError(
        f"machine {machine.name!r} differs from its preset beyond "
        "cores_per_node and cannot be shipped to sweep workers"
    )


@dataclass
class RunResult:
    """Outcome of one sweep point (success or isolated failure)."""

    spec: RunSpec
    ok: bool
    values: Dict[str, Any] = field(default_factory=dict)
    error: str = ""
    wall_time: float = 0.0   # worker-side wall-clock seconds
    events: int = 0          # simulator events fired by the point
    #: per-point trace payload (parallel tracing runs only): serialized
    #: TraceEvent tuples + (label, n_pes) run registrations, merged
    #: into the parent's EventLog by the runner.
    trace_events: List[tuple] = field(default_factory=list)
    trace_runs: List[Tuple[str, int]] = field(default_factory=list)

    def unwrap(self) -> Dict[str, Any]:
        """The point's values, or raise the point's failure here."""
        if not self.ok:
            raise SweepError(
                f"sweep point {self.spec.label()} failed:\n{self.error}"
            )
        return self.values

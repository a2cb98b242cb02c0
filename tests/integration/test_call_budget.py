"""A call-count tripwire for the per-message host path.

Wall time on a shared host spreads too widely to catch a few percent
of extra host work per message; Python's call count does not spread.
Each case runs one of the pin test's four serial 64-PE stencil
configurations (``run_stencil(M, 64, iterations=2, mode=m)``) in a
fresh interpreter, with cProfile on around the driver call only, and
holds ``pstats.Stats.total_calls`` to a budget 1 % above the count
measured for that Python minor version.

* A count above the budget fails: some change added host work per
  message.  If that is intended, measure again and say why in
  CHANGES.md.
* A count more than 3 % below the budget fails too: the host path got
  cheaper, so the budget should come down with it.

The child is fresh because an entry-method sender is installed on the
proxy class by the first send that names it, which only the first run
in a process counts.  It drops every inherited ``REPRO_*`` setting and
runs the heap queue, since the compiled and calendar queues make
different Python calls.  Counts are the same under any
``PYTHONHASHSEED``; the child pins it anyway.

To lower a budget, run the child by hand (``python -c`` with ``CHILD``
below, ``PYTHONPATH=src PYTHONHASHSEED=0 REPRO_EVENTQ=heap``, and the
machine and mode as arguments) and enter the printed counts in
``MEASURED``.
"""

import math
import os
import pathlib
import subprocess
import sys

import pytest

import repro

#: Python (major, minor) -> (machine, mode) -> calls measured for it.
MEASURED = {
    (3, 11): {
        ("Abe", "msg"): 423_144,
        ("Abe", "ckd"): 580_282,
        ("Surveyor", "msg"): 432_625,
        ("Surveyor", "ckd"): 520_974,
    },
}

CONFIGS = [("Abe", "msg"), ("Abe", "ckd"), ("Surveyor", "msg"),
           ("Surveyor", "ckd")]

CHILD = """
import cProfile, pstats, sys
from repro.apps.stencil.driver import run_stencil
from repro.network.params import ABE, SURVEYOR
machine = {"Abe": ABE, "Surveyor": SURVEYOR}[sys.argv[1]]
prof = cProfile.Profile()
prof.enable()
run_stencil(machine, 64, iterations=2, mode=sys.argv[2])
prof.disable()
print(pstats.Stats(prof).total_calls)
"""


def _calls(machine: str, mode: str) -> int:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(pathlib.Path(repro.__file__).resolve().parents[1]),
        PYTHONHASHSEED="0",
        REPRO_EVENTQ="heap",
    )
    out = subprocess.run(
        [sys.executable, "-c", CHILD, machine, mode], env=env,
        capture_output=True, text=True, timeout=300, check=True,
    )
    return int(out.stdout.split()[-1])


@pytest.mark.parametrize("machine,mode", CONFIGS)
def test_call_count_within_budget(machine, mode):
    version = sys.version_info[:2]
    measured = MEASURED.get(version)
    if measured is None:
        pytest.skip(f"no call budget for Python {version[0]}.{version[1]}; "
                    "measure one (see the module docstring)")
    budget = math.ceil(measured[machine, mode] * 1.01)
    calls = _calls(machine, mode)
    assert calls <= budget, (
        f"{machine} {mode}: {calls} calls exceed the budget of {budget}: "
        "host work per message went up")
    assert calls >= 0.97 * budget, (
        f"{machine} {mode}: {calls} calls, more than 3 % under the budget "
        f"of {budget}: lower MEASURED[{version}] to the new count")

"""Regenerate ``expected.json``: each workload's output digest, taken
from its reference configuration (see ``workloads.REFERENCE``) under
two seeds, which must agree — timing-mode outputs do not depend on
the data seed.

    PYTHONPATH=src python3 perfbench/make_oracle.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SEEDS = (1, 2)


def main() -> int:
    expected = {}
    for name in workloads.REFERENCE:
        digests = {workloads.REFERENCE[name](seed)["digest"] for seed in SEEDS}
        if len(digests) != 1:
            print(f"{name}: digest depends on the seed: {sorted(digests)}")
            return 1
        expected[name] = digests.pop()
        print(f"{name}: {expected[name]}")
    with open(os.path.join(HERE, "expected.json"), "w") as f:
        json.dump(expected, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

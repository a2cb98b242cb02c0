"""``repro`` needs one third-party package, numpy."""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Run in a fresh interpreter: the top-level modules the imports add.
_PROBE = """
import json, sys
before = {name.partition(".")[0] for name in sys.modules}
import repro, repro.cli, repro.serve, repro.apps.stencil.driver, repro.bench.harness
after = {name.partition(".")[0] for name in sys.modules}
print(json.dumps(sorted(after - before)))
"""


def test_repro_imports_nothing_but_numpy_and_the_stdlib():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    added = set(json.loads(out.stdout)) - {"__mp_main__"}
    assert {"repro", "numpy"} <= added
    foreign = sorted(name for name in added - {"repro", "numpy"}
                     if name not in sys.stdlib_module_names)
    assert foreign == [], f"third-party modules imported by repro: {foreign}"

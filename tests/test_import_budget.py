"""What ``import repro`` loads, held as an exact set.

Every process that imports the package — each ``python -m repro …``, each
benchmark round — pays for its imports in start-up time and resident
memory before the first simulated event.  PR 22 took networkx (285
modules, 0.15 s, 15 MB) out of that bill; numpy is the one third-party
package left.  The next heavyweight import fails here by name instead of
moving ``setup_s`` by a quarter unnoticed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, os, sys

def third_party():
    return {name.partition(".")[0]
            for name, module in list(sys.modules.items())
            if "site-packages" in (getattr(module, "__file__", None)
                                   or "").split(os.sep)}

# a .pth shim that ``site`` loaded at start-up is not repro's doing
before = third_party()
import repro
package = sorted(third_party() - before), len(sys.modules)
import repro.bench, repro.cli
print(json.dumps({"package": package,
                  "everything": sorted(third_party() - before)}))
"""


def test_numpy_is_the_only_third_party_import():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    loaded = json.loads(out)
    added, modules = loaded["package"]
    assert added == ["numpy"]
    assert modules < 320  # 649 with networkx, 292 without
    assert loaded["everything"] == ["numpy"]

"""numpy is nskwave's only runtime dependency; scipy serves the tests as a
reference.  Importing scipy's optimize, integrate and interpolate costs
several times the rest of nskwave's import, so a module that brings one
back on the set-up path or the stepping path fails here."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# set-up on the standard config, then a short run of the smoke config:
# profile solve, fan and shock stacks, Runge-Kutta steps and records
SETUP = f"""
import dataclasses
import sys
sys.path.insert(0, {str(ROOT / "src")!r})
import nskwave
config = nskwave.parse_config({str(ROOT / "configs" / "standard.cfg")!r})
nskwave.build_composite(config.build_pattern(), config.gas)
smoke = nskwave.parse_config({str(ROOT / "configs" / "smoke.cfg")!r})
smoke.scheme = dataclasses.replace(smoke.scheme, t_end=0.05)
assert nskwave.run(smoke).summary["steps"] > 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_set_up_loads_no_scipy():
    done = subprocess.run([sys.executable, "-c", SETUP], capture_output=True, text=True,
                          timeout=120, cwd=ROOT, check=True)
    assert done.stdout.strip() == "[]"

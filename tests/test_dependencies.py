"""numpy is nskwave's only runtime dependency; scipy serves the tests as a
reference.  Importing scipy's optimize, integrate and interpolate costs
several times the rest of nskwave's import, so a module that brings one
back on the set-up path fails here."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SETUP = f"""
import sys
sys.path.insert(0, {str(ROOT / "src")!r})
import nskwave
config = nskwave.parse_config({str(ROOT / "configs" / "standard.cfg")!r})
nskwave.build_composite(config.build_pattern(), config.gas)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_set_up_loads_no_scipy():
    done = subprocess.run([sys.executable, "-c", SETUP], capture_output=True, text=True,
                          timeout=120, cwd=ROOT, check=True)
    assert done.stdout.strip() == "[]"

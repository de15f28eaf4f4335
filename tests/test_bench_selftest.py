"""The benchmark's self-test runs its checks on shrunken inputs and on
corrupted outputs; running it here makes a break of what those checks read
(``eval_profile`` stacks, the keys of ``part_stacks``) fail in the test
suite, not only in a benchmark run.  It reads ``bench/`` and edits nothing
there."""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.slow
def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr

"""The pinned report digests and the kernel checks once more with numpy's
AVX-512 loops off.

On an AVX-512 host numpy's array ``**`` can differ from libm's ``pow`` in
the last place (10,782 of 200,001 values of ``x ** 1.5`` on [0, 1000] on
one Xeon); with ``NPY_DISABLE_CPU_FEATURES`` naming the AVX-512 dispatch
targets it differs in none. Running ``tests/test_report_hashes.py`` under
both settings shows on one machine, not first on another, when a report
depends on which SIMD loop numpy picked. ``tests/test_kernels.py`` runs
in the same subprocess, so the schedule scan equals the day-by-day
recurrence and ``simulate`` bit for bit on both loop sets, and so does
``tests/test_table_cells.py``, so the table reports' cells, several tables
to a report among them, are re-derived on both. The variable
acts on the subprocess only; on a host without AVX-512 both runs take
the same loops.
"""

import os
import subprocess
import sys
from pathlib import Path

NO_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"


def test_report_digests_without_avx512_loops():
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(tests / "test_report_hashes.py"), str(tests / "test_kernels.py"),
         str(tests / "test_table_cells.py")],
        cwd=tests.parent, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]

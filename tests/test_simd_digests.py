"""The pinned report digests and the kernel checks once more with numpy's
AVX-512 loops off.

Reports no longer depend on which SIMD loop numpy picks. On an AVX-512
host numpy's array ``**`` can differ from libm's ``pow`` in the last place
(10,782 of 200,001 values of ``x ** 1.5`` on [0, 1000] on one Xeon), but
every cost now takes its powers with libm's ``pow``: Python's float
``**`` in ``simulate`` and the optimizers, numpy's ``float_power``, which
has no SIMD loop, in the schedule scan. This subprocess stays as the
guard that shows, on one machine, when a report would again depend on
the loop set: ``NPY_DISABLE_CPU_FEATURES`` naming the AVX-512 dispatch
targets makes numpy take its other loops, and under it
``tests/test_report_hashes.py`` must give the same digests,
``tests/test_kernels.py`` the scan equal to the day-by-day recurrence and
``simulate`` bit for bit, ``tests/test_trajectory.py`` ``simulate`` equal
to ``daily_cost``, ``tests/test_schedule_oracle.py`` the comparator equal
to the dense reference, and ``tests/test_table_cells.py`` the table
reports' cells, several tables to a report among them, re-derived. The
variable acts on the subprocess only; on a host without AVX-512 both runs
take the same loops.
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
         str(tests / "test_table_cells.py"), str(tests / "test_trajectory.py"),
         str(tests / "test_schedule_oracle.py")],
        cwd=tests.parent, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]

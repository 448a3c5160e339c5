"""Test-session setup: one BLAS thread unless the environment says otherwise.

The suite's matrix products are small. Under several BLAS threads on a shared
host they run many times slower: a 16x16 reference-config backward took 6.0 s
with two OpenBLAS threads on a 2-vCPU machine with one other busy process,
against 0.63 s with one. ``perfbench/run.py`` pins one thread the same way.
The variables take effect only if they are set before numpy is first imported,
which is why they live here.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

"""The SIC decode kernel used by the rest of the package.

There is one implementation, ``_decode_py.decode_feasible``.  This module
keeps the import path and the ``KERNEL_BACKEND`` name that the benchmark
(``perfbench/run.py``) reads on every run and patches when tracing.
"""

from ._decode_py import decode_feasible

KERNEL_BACKEND = "python"

"""Pin BLAS to one thread before any test module imports numpy.

The tests multiply many small matrices; with OpenBLAS's default thread
count each product can wait on the other cores, and the suite slows
several-fold whenever another process is busy.  Values set in the
environment beforehand win.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

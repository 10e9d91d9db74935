"""OpenBLAS runs on one thread: the program owns its parallelism.

The estimators already run in parallel on their own terms: shard threads,
live site threads, process-pool workers, and stacked loops in which areas
are the lanes.  OpenBLAS would add a hidden pool of ``nproc`` threads to
every LAPACK call at or above its threading size (the band and dense
Cholesky of ``estimation.solvers``, SuperLU's dense kernels in the sparse
mode and the DC compensation of ``grid.powerflow``).  That pool competes
with the program's threads, and two shard threads factoring at once each
wait on it.  :func:`pin_one_thread` sets every OpenBLAS the process has
loaded to one thread; ``repro/__init__.py`` calls it once, so every
process that imports :mod:`repro` (process-pool workers included) runs
BLAS on one thread.

A host that sets ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` has made
its own choice, and the pool is left as it set it.
"""

from __future__ import annotations

import ctypes
import os


def loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process (numpy's
    ``scipy_openblas64_``, scipy's ``scipy_openblas``, a system
    ``openblas``); empty where ``/proc/self/maps`` cannot be read."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {
                fields[5].strip()
                for fields in (line.split(maxsplit=5) for line in maps)
                if len(fields) == 6
            }
    except OSError:
        return []
    return sorted(p for p in paths if "openblas" in os.path.basename(p).lower())


def pin_one_thread() -> None:
    """Set every loaded OpenBLAS to one thread, unless the host chose.

    Imports :mod:`scipy.linalg` first so scipy's own copy is loaded, then
    calls whichever of the set-threads symbols each library exports.  A
    library that cannot be opened or exports none of them is skipped;
    nothing here raises.
    """
    if os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS"):
        return
    import scipy.linalg  # noqa: F401  (maps scipy's OpenBLAS copy)

    for path in loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in (
            "openblas_set_num_threads",
            "scipy_openblas_set_num_threads",
            "scipy_openblas_set_num_threads64_",
        ):
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)

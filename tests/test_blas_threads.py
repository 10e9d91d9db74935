"""Importing ``repro`` runs every loaded OpenBLAS on one thread.

The program's parallelism is its own (shard threads, site threads, process
pools, stacked loops); OpenBLAS's hidden pool would compete with it.  The
pin must hold whatever order numpy, scipy and ``repro`` are imported in,
reach process-pool workers, leave a host's ``OPENBLAS_NUM_THREADS`` /
``OMP_NUM_THREADS`` alone, and never raise.  Each check that reads a
thread count runs in a fresh interpreter, so the pytest process's own
imports and environment do not decide it.
"""

import ctypes
import ctypes.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.linalg  # noqa: F401  (maps scipy's OpenBLAS copy, as repro does)

import repro
from repro import blas_threads
from repro.blas_threads import loaded_openblas, pin_one_thread

pytestmark = pytest.mark.skipif(
    not loaded_openblas(),
    reason="no OpenBLAS library is loaded: numpy and scipy use another BLAS",
)

_HOST_KNOBS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _thread_counts(_=None) -> dict[str, int]:
    """Each loaded OpenBLAS's thread count, read through its own symbol."""
    counts = {}
    for path in loaded_openblas():
        lib = ctypes.CDLL(path)
        for name in (
            "openblas_get_num_threads",
            "scipy_openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
        ):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                counts[os.path.basename(path)] = getter()
    return counts


def _run(script: str, **env) -> dict[str, int]:
    """``script`` in a fresh interpreter with neither host knob set unless
    given in ``env``; its last output line is JSON."""
    full = {k: v for k, v in os.environ.items() if k not in _HOST_KNOBS}
    paths = [str(Path(repro.__file__).parents[1]), str(Path(__file__).parent)]
    full["PYTHONPATH"] = os.pathsep.join(paths + [full.get("PYTHONPATH", "")])
    full.update(env)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=full, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


_BENCHMARK_ORDER = """
import json
import numpy, scipy, scipy.linalg
{repro}
from test_blas_threads import _thread_counts
print(json.dumps(_thread_counts()))
"""


def test_numpy_and_scipy_first_then_repro_pins_every_library():
    counts = _run(_BENCHMARK_ORDER.format(repro="import repro"))
    # numpy's 64-bit-index copy and scipy's own copy, at least
    assert len(counts) >= 2, counts
    assert set(counts.values()) == {1}, counts


def test_repro_first_loads_and_pins_scipys_copy():
    counts = _run(
        "import json, repro\n"
        "from test_blas_threads import _thread_counts\n"
        "print(json.dumps(_thread_counts()))\n"
    )
    assert len(counts) >= 2, counts
    assert set(counts.values()) == {1}, counts


@pytest.mark.parametrize("knob", _HOST_KNOBS)
def test_a_host_setting_is_left_alone(knob):
    host = _run(_BENCHMARK_ORDER.format(repro=""), **{knob: "2"})
    with_repro = _run(_BENCHMARK_ORDER.format(repro="import repro"), **{knob: "2"})
    assert with_repro == host
    if os.cpu_count() and os.cpu_count() >= 2:
        assert set(with_repro.values()) == {2}, with_repro


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_a_process_pool_worker_runs_one_thread(start_method):
    counts = _run(
        "import json\n"
        "from repro.parallel import ProcessPoolBackend\n"
        "from test_blas_threads import _thread_counts\n"
        f"with ProcessPoolBackend(1, start_method={start_method!r}) as pool:\n"
        "    print(json.dumps(pool.map(_thread_counts, [None])[0]))\n"
    )
    assert counts and set(counts.values()) == {1}, counts


class TestNeverRaises:
    @pytest.fixture(autouse=True)
    def _no_host_knob(self, monkeypatch):
        for knob in _HOST_KNOBS:
            monkeypatch.delenv(knob, raising=False)

    def test_a_library_without_the_symbol_is_skipped(self, monkeypatch):
        libm = ctypes.util.find_library("m")
        paths = ["/nonexistent/libopenblas.so"] + ([libm] if libm else [])
        monkeypatch.setattr(blas_threads, "loaded_openblas", lambda: paths)
        pin_one_thread()

    def test_unreadable_maps_find_no_library(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("no /proc here")

        monkeypatch.setattr(blas_threads, "open", refuse, raising=False)
        assert loaded_openblas() == []
        pin_one_thread()

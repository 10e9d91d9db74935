"""Pluggable executors for fanning independent work out.

:class:`SubsystemExecutor` abstracts *how* a batch of independent tasks is
executed.  Its one fan-out is the AC contingency sweep
(:func:`repro.contingency.parallel.run_parallel`, which the
scenario-serving engine drains its contingency cases through).  A DC sweep
is one batched compensation solve and a DSE stage one stacked solve over
every subsystem (:func:`repro.dse.stepper.solve_stage`); neither fans out.

- :class:`SerialExecutor` — plain in-order loop (the reference semantics);
- :class:`ProcessPoolBackend` — persistent worker *processes*.  Workers run
  a one-time initializer that builds heavy state (case network, Jacobian
  structures, factorization orderings, estimator caches) **inside** the
  worker, so the warm caches live across tasks; after that, tasks carry
  only compact payloads (case indices, outage records) and return plain
  arrays.  This is the true multi-core scale-out path.

Executors only ever run *independent* tasks — callers are responsible for
snapshotting shared state before a fan-out and applying updates after it,
which is what keeps pooled results bit-identical to serial ones.

Process-backend contract
------------------------
Functions submitted to :meth:`ProcessPoolBackend.map` must be module-level
callables (picklable by reference) and their items compact picklable
values.  Worker-resident state is installed with
:meth:`ProcessPoolBackend.initialize` and fetched inside tasks with
:func:`worker_context`; never ship ``Network``/estimator objects per task.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import traceback
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable

from . import faults, obs

__all__ = [
    "SubsystemExecutor",
    "SerialExecutor",
    "ProcessPoolBackend",
    "WorkerError",
    "WorkerCrash",
    "worker_context",
    "make_executor",
]

#: Executor spec strings accepted by :func:`make_executor`.
EXECUTOR_SPECS = (
    "None/'serial'",
    "'processes'",
    "'processes:N'",
    "a SubsystemExecutor instance",
)


class WorkerError(Exception):
    """Carries the formatted traceback of an exception raised in a worker
    process; chained as ``__cause__`` of the re-raised original exception so
    the remote traceback text survives the process boundary."""

    def __str__(self) -> str:
        return f"worker-side traceback:\n{self.args[0]}"


class WorkerCrash(RuntimeError):
    """A worker process died or hung and the task could not be completed
    within the supervisor's retry budget (see
    :class:`ProcessPoolBackend`)."""


class SubsystemExecutor(ABC):
    """Executes a batch of independent callables and collects results."""

    #: number of concurrent workers the backend can occupy
    n_workers: int = 1

    #: True when tasks run in separate processes (no shared memory with the
    #: caller); callers must then submit module-level functions with compact
    #: picklable payloads instead of closures.
    distributed: bool = False

    @abstractmethod
    def map(self, fn: Callable, items: Iterable) -> list:
        """Apply ``fn`` to every item; results in input order.

        Exceptions raised by ``fn`` propagate to the caller (the batch is
        not silently truncated).
        """

    def shutdown(self) -> None:
        """Release worker resources (idempotent)."""

    # -- context manager ----------------------------------------------------
    def __enter__(self) -> "SubsystemExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class SerialExecutor(SubsystemExecutor):
    """Runs every task inline, in order — the reference executor."""

    n_workers = 1

    def map(self, fn: Callable, items: Iterable) -> list:
        return [fn(item) for item in items]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SerialExecutor()"


# ---------------------------------------------------------------------------
# Process backend: worker-resident contexts
# ---------------------------------------------------------------------------

#: Worker-process-resident heavy state, keyed by context token.  Populated
#: by the pool initializer; read from inside tasks via ``worker_context``.
_WORKER_CONTEXTS: dict[str, object] = {}


def worker_context(key: str):
    """Fetch worker-resident state installed by the pool initializer.

    Only meaningful inside a task running on a :class:`ProcessPoolBackend`
    whose :meth:`~ProcessPoolBackend.initialize` registered ``key``.
    """
    try:
        return _WORKER_CONTEXTS[key]
    except KeyError:
        raise RuntimeError(
            f"worker context {key!r} is not initialised in this process; "
            "register it with ProcessPoolBackend.initialize before map()"
        ) from None


def _pool_initializer(specs: tuple) -> None:
    """Runs once per worker process: build every registered context."""
    # A forked worker inherits the parent's observability state (enabled
    # flag, recorded spans); none of it is meaningful here, so clear the
    # inherited state and disable the global hub.
    obs.reset_in_worker()
    for key, builder, payload in specs:
        _WORKER_CONTEXTS[key] = builder(payload)


def _invoke_remote(fn: Callable, item):
    """Worker-side call wrapper: captures exceptions with their traceback
    text (the parent re-raises them chained to a :class:`WorkerError`), and
    tags results with the worker pid for load accounting."""
    try:
        return True, fn(item), os.getpid()
    except BaseException as exc:
        tb = traceback.format_exc()
        try:
            pickle.dumps(exc)
        except Exception:
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        return False, (exc, tb), os.getpid()


def _invoke_remote_faulted(fn: Callable, item, mode: str | None, delay: float):
    """Worker-side wrapper used when a fault injector is installed in the
    parent.  The parent decides the fault (workers are separate processes
    and never see the injector) and ships it with the task: ``kill`` dies
    hard mid-task (``os._exit``, no cleanup — exactly what an OOM kill or
    segfault looks like to the pool), ``hang`` wedges the worker so only
    the supervisor's ``task_timeout`` can reclaim it."""
    if mode == "kill":
        os._exit(86)
    elif mode == "hang":
        time.sleep(delay if delay > 0 else 3600.0)
    return _invoke_remote(fn, item)


class ProcessPoolBackend(SubsystemExecutor):
    """Persistent worker processes with warm, worker-resident state.

    Parameters
    ----------
    n_workers:
        Worker process count (default ``min(8, cpu_count)``).
    start_method:
        ``multiprocessing`` start method; defaults to ``"fork"`` where
        available (cheap spawn, copy-on-write) and ``"spawn"`` otherwise.
    max_task_retries:
        The supervisor re-runs tasks stranded by a dead or hung worker on
        a freshly respawned warm pool; each task may be re-run at most
        this many times before :class:`WorkerCrash` is raised.  Ordinary
        task exceptions are *not* retried — they re-raise immediately, as
        before.
    task_timeout:
        Per-task deadline in seconds while draining results.  ``None``
        (default) waits forever — the legacy behaviour; set it to detect
        *hung* workers (a crash is detected immediately either way), which
        are terminated and their tasks re-run.

    Usage shape::

        pool = ProcessPoolBackend(4)
        pool.initialize("contingency:1", _analyzer_state, analyzer)
        results = pool.map(_task_fn, compact_items)   # workers stay warm

    ``initialize`` registers a one-time per-worker initializer: the builder
    runs inside each worker when it spawns (lazily, on the first ``map``)
    and its product is fetched from tasks with :func:`worker_context`.
    Registering a *new* context key after the workers have spawned restarts
    the pool — callers key contexts stably (one token per contingency
    analyzer) so repeated sweeps over the same case reuse the warm workers.

    ``map`` requires module-level functions and compact picklable items;
    exceptions raised in a worker re-raise in the parent with the original
    traceback text chained as ``WorkerError``.
    """

    distributed = True

    def __init__(
        self,
        n_workers: int | None = None,
        *,
        start_method: str | None = None,
        max_task_retries: int = 2,
        task_timeout: float | None = None,
    ):
        if n_workers is None:
            n_workers = min(8, os.cpu_count() or 1)
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if max_task_retries < 0:
            raise ValueError("max_task_retries must be >= 0")
        self.n_workers = int(n_workers)
        if start_method is None:
            import multiprocessing as mp

            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self.start_method = start_method
        self.max_task_retries = int(max_task_retries)
        self.task_timeout = task_timeout
        self.respawns = 0  # pool respawns forced by dead/hung workers
        self._pool: ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._contexts: dict[str, tuple[Callable, object]] = {}
        self._installed: set[str] = set()

    # -- worker contexts ----------------------------------------------------
    def initialize(self, key: str, builder: Callable, payload) -> None:
        """Register a one-time worker initializer under ``key``.

        ``builder(payload)`` runs in every worker process at spawn time;
        both must be picklable (``builder`` module-level).  Re-registering
        an existing key is a no-op; a new key while the pool is live
        restarts the workers (the one-time warmup cost).
        """
        with self._pool_lock:
            if key in self._contexts:
                return
            self._contexts[key] = (builder, payload)
            if self._pool is not None:
                pool, self._pool = self._pool, None
                self._installed = set()
            else:
                pool = None
        if pool is not None:
            pool.shutdown(wait=True)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                import multiprocessing as mp

                specs = tuple(
                    (key, builder, payload)
                    for key, (builder, payload) in self._contexts.items()
                )
                self._pool = ProcessPoolExecutor(
                    max_workers=self.n_workers,
                    mp_context=mp.get_context(self.start_method),
                    initializer=_pool_initializer,
                    initargs=(specs,),
                )
                self._installed = set(self._contexts)
            return self._pool

    # -- execution ----------------------------------------------------------
    def map(self, fn: Callable, items: Iterable) -> list:
        results, _ = self.map_with_pids(fn, items)
        return results

    def map_with_pids(self, fn: Callable, items: Iterable) -> tuple[list, list[int]]:
        """Like :meth:`map`, also returning the worker pid per task —
        callers that keep per-worker accounting (busy time, case counts)
        densify the pids themselves.

        Supervised: a worker that dies mid-batch (``BrokenProcessPool``)
        or hangs past ``task_timeout`` is reclaimed — the pool is respawned
        warm (the registered contexts rebuild in the new workers) and the
        stranded tasks re-run, up to ``max_task_retries`` times each.
        Task payloads are compact by contract, so re-running them is cheap.
        """
        items = list(items)
        watch = None
        if obs.health_enabled():
            # a hung task beyond 2x its timeout means supervision itself
            # stalled (or no task_timeout bounds the wait — then the
            # monitor's default stall threshold applies)
            watch = obs.health().watch(
                "executor.pool_map",
                timeout=(
                    2.0 * self.task_timeout if self.task_timeout else None
                ),
                source="processes", tasks=len(items),
            )
        try:
            return self._map_with_pids(fn, items, watch)
        finally:
            if watch is not None:
                obs.health().disarm(watch)

    def _map_with_pids(
        self, fn: Callable, items: list, watch=None
    ) -> tuple[list, list[int]]:
        n = len(items)
        results: list = [None] * n
        pids: list[int] = [0] * n
        runs = [0] * n
        pending = list(range(n))
        while pending:
            pool = self._ensure_pool()
            inj = faults.active()
            futures: dict[int, object] = {}
            try:
                for i in pending:
                    runs[i] += 1
                    if inj is None:
                        futures[i] = pool.submit(_invoke_remote, fn, items[i])
                    else:
                        d = inj.decide("worker", i)
                        futures[i] = pool.submit(
                            _invoke_remote_faulted, fn, items[i],
                            d.action if d else None, d.delay,
                        )
            except BrokenProcessPool:
                pass  # drain whatever was submitted; the rest re-runs
            stranded: list[int] = []
            hung = False
            for i in pending:
                fut = futures.get(i)
                if fut is None:
                    stranded.append(i)
                    continue
                try:
                    ok, value, pid = fut.result(timeout=self.task_timeout)
                except BrokenProcessPool:
                    stranded.append(i)
                    continue
                except TimeoutError:
                    stranded.append(i)
                    hung = True
                    continue
                if not ok:
                    exc, tb = value
                    raise exc from WorkerError(tb)
                results[i] = value
                pids[i] = pid
                if watch is not None:
                    obs.health().beat(watch)
            if not stranded:
                break
            over = [i for i in stranded if runs[i] > self.max_task_retries]
            if over:
                self._kill_pool()
                raise WorkerCrash(
                    f"task(s) {over} still stranded by "
                    f"{'hung' if hung else 'dead'} workers after "
                    f"{self.max_task_retries} retr"
                    f"{'y' if self.max_task_retries == 1 else 'ies'}"
                )
            # reclaim the broken pool (terminating hung workers) and
            # respawn warm for the re-run
            self._kill_pool()
            self.respawns += 1
            if obs.enabled():
                m = obs.metrics()
                m.counter("executor.pool_respawns_total").inc()
                m.counter("executor.task_reruns_total").inc(len(stranded))
            pending = stranded
        if obs.enabled():
            obs.metrics().counter(
                "executor.tasks_total", backend="processes"
            ).inc(n)
        return results, pids

    def _kill_pool(self) -> None:
        """Tear the pool down without waiting on its workers: terminate
        them first (a hung worker never honours a graceful shutdown)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
            self._installed = set()
        if pool is None:
            return
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - already reaped
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
            self._installed = set()
        if pool is not None:
            pool.shutdown(wait=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProcessPoolBackend(n_workers={self.n_workers}, "
            f"start_method={self.start_method!r})"
        )


def make_executor(spec: "SubsystemExecutor | str | None") -> SubsystemExecutor:
    """Resolve an executor spec.

    Accepted specs:

    - ``None`` / ``"serial"`` — :class:`SerialExecutor`;
    - ``"processes"`` / ``"processes:N"`` — :class:`ProcessPoolBackend`
      with the default / ``N`` worker processes;
    - an existing :class:`SubsystemExecutor` instance — passed through.
    """
    if spec is None or spec == "serial":
        return SerialExecutor()
    if isinstance(spec, SubsystemExecutor):
        return spec
    if isinstance(spec, str):
        name, sep, count = spec.partition(":")
        if name == "processes":
            if not sep:
                return ProcessPoolBackend()
            if count.isdigit() and int(count) >= 1:
                return ProcessPoolBackend(int(count))
    raise ValueError(
        f"unrecognised executor spec {spec!r}; accepted specs: "
        + ", ".join(EXECUTOR_SPECS)
    )

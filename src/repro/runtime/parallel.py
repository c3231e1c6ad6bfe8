"""Thread-pooled fan-out across independent CSDs (the Fig. 11 structure).

The paper's multi-CSD scaling argument is that each SmartSSD updates its
shard over its *own* internal path — the per-device work shares nothing
but the host-side glue.  The functional engines have the same property:

* every CSD owns a disjoint flat shard, a private backing file, private
  FPGA-DRAM buffers, a private transfer handler and error-feedback
  residual — no two devices ever touch the same bytes;
* the only cross-device state is the :class:`~repro.runtime.partition.
  FlatParameterSpace` (upstream installs write disjoint flat ranges of
  its one buffer in place, so they need no lock), the
  :class:`~repro.runtime.stats.TrafficMeter` (lock-protected counters),
  and telemetry (thread-safe by construction).

Because the update arithmetic is element-wise over disjoint ranges, the
execution order across devices is irrelevant: fanning the per-device
passes over a thread pool is *bit-identical* to the sequential loop
(property-tested), while wall-clock improves wherever the interpreter
can overlap work — numpy ufuncs and ``os.pread``/``os.pwrite`` all
release the GIL, so per-device file I/O and SIMD update math from
different devices genuinely run concurrently on multi-core hosts.

``workers=1`` degenerates to an inline loop on the calling thread — no
pool, no thread hop — so the sequential engine is still exactly the old
code path.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Iterable, List, Optional, TypeVar

import numpy as np

from ..errors import TrainingError, WorkerCrashError

T = TypeVar("T")
R = TypeVar("R")

#: Execution backends for the per-CSD fan-out.
BACKENDS = ("thread", "process", "auto")


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    ``os.cpu_count`` reports the machine; cgroup/affinity limits (CI
    runners, containers, taskset) can pin the process to fewer cores.
    Worker resolution and the bench environment fingerprint both use
    this, so "4 workers" never silently means "4 workers on 1 core".
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def resolve_workers(requested: Optional[int], num_tasks: int) -> int:
    """Resolve a ``parallel_csds`` knob into a concrete worker count.

    ``None`` or ``0`` means *auto*: ``min(num_tasks, usable_cpus)``, the
    paper's one-worker-per-CSD placement capped by the CPUs the process
    can actually use.  An explicit positive count is honoured (capped at
    ``num_tasks`` — extra workers could never have work) even beyond the
    CPU count, so tests can force pooled execution on small machines.
    """
    if num_tasks < 1:
        raise TrainingError("need at least one task to schedule")
    if requested is None or requested == 0:
        return max(1, min(num_tasks, usable_cpus()))
    if requested < 0:
        raise TrainingError(
            f"worker count must be positive (or 0/None for auto), "
            f"got {requested}")
    return min(requested, num_tasks)


def resolve_backend(requested: str, workers: int) -> str:
    """Resolve a ``parallel_backend`` knob to ``thread`` or ``process``.

    ``auto`` picks ``process`` exactly when it could help: more than one
    worker *and* more than one usable CPU.  On a single core (or for a
    sequential run) processes only add IPC overhead, so auto falls back
    to the thread path.
    """
    if requested not in BACKENDS:
        raise TrainingError(
            f"unknown parallel backend {requested!r}; expected one of "
            f"{', '.join(BACKENDS)}")
    if requested == "auto":
        if workers > 1 and usable_cpus() > 1:
            return "process"
        return "thread"
    return requested


def _check_payload(obj: object, direction: str) -> None:
    """Reject ndarrays anywhere in a pipe payload.

    The process pool's task protocol ships descriptors and scalars only;
    tensor bytes move through shared-memory segments.  Pickling an
    ndarray over the pipe would silently reintroduce the per-step copy
    the whole backend exists to remove, so it is an error, not a slow
    path.
    """
    stack = [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            raise TrainingError(
                f"ndarray in worker-pool {direction}: tensors must move "
                f"via shared memory, not the task pipe")
        if isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)


class CSDWorkerPool:
    """Persistent thread pool executing one task per device, in order.

    The pool is created once per engine and reused every iteration (the
    paper's per-CSD workers are likewise persistent).  Worker threads are
    named ``csd-worker_N`` so telemetry spans recorded inside a task carry
    a recognisable thread identity in Chrome traces.
    """

    def __init__(self, workers: int,
                 name_prefix: str = "csd-worker") -> None:
        if workers < 1:
            raise TrainingError(f"need at least one worker, got {workers}")
        self.workers = workers
        self._pool: Optional[ThreadPoolExecutor] = None
        if workers > 1:
            self._pool = ThreadPoolExecutor(max_workers=workers,
                                            thread_name_prefix=name_prefix)
        self._closed = False

    @property
    def is_parallel(self) -> bool:
        return self._pool is not None

    def submit(self, fn: Callable[..., R], *args) -> "Future[R]":
        """Submit one task; returns a Future.

        The ready-queue scheduler (:mod:`repro.runtime.interleave`) uses
        this to enqueue per-block chains as gradients become available.
        With one worker the task runs inline on the calling thread and
        the returned Future is already completed — the interleaved
        schedule degenerates to the sequential loop exactly.
        """
        if self._closed:
            raise TrainingError("worker pool is closed")
        if self._pool is None:
            future: Future = Future()
            try:
                future.set_result(fn(*args))
            except BaseException as exc:  # noqa: BLE001 - via Future
                future.set_exception(exc)
            return future
        return self._pool.submit(fn, *args)

    def map_ordered(self, fn: Callable[[T], R],
                    items: Iterable[T]) -> List[R]:
        """Run ``fn`` over ``items``; results in submission order.

        With one worker (or one item) this is an inline loop on the
        calling thread.  On error, every submitted task is still awaited
        — per-device work must never be abandoned mid-write — and the
        first exception is re-raised.
        """
        if self._closed:
            raise TrainingError("worker pool is closed")
        work = list(items)
        if self._pool is None or len(work) <= 1:
            return [fn(item) for item in work]
        futures = [self._pool.submit(fn, item) for item in work]
        results: List[R] = []
        first_error: Optional[BaseException] = None
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return results

    def close(self) -> None:
        if self._closed:
            return
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        self._closed = True

    def __enter__(self) -> "CSDWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# process-backed pool
# ----------------------------------------------------------------------

def _mp_context():
    """The multiprocessing start-method context for worker processes.

    ``fork`` when available (fast, inherits the module graph); honours
    ``REPRO_MP_START`` for experiments.  All task functions are
    module-level and all payloads picklable, so ``spawn`` works too.
    """
    method = os.environ.get("REPRO_MP_START")
    if method is None:
        methods = multiprocessing.get_all_start_methods()
        method = "fork" if "fork" in methods else "spawn"
    return multiprocessing.get_context(method)


def _process_worker_main(conn, name: str) -> None:
    """Child-process task loop: recv ``(fn, item)``, send tagged result.

    Runs until a ``None`` sentinel or pipe EOF.  Exceptions are shipped
    back tagged ``"error"`` (falling back to a string rendering when the
    exception itself does not pickle), so a failing task never kills the
    worker — the pool stays reusable.
    """
    import threading
    threading.current_thread().name = name
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        except BaseException as exc:  # noqa: BLE001 - bad task message
            # The message arrived but would not unpickle (e.g. a task fn
            # the child cannot resolve).  Answer with the error so the
            # parent's recv accounting stays aligned, and keep serving.
            conn.send(("error", TrainingError(
                f"worker could not decode task: "
                f"{type(exc).__name__}: {exc}")))
            continue
        if msg is None:
            break
        fn, item = msg
        try:
            conn.send(("ok", fn(item)))
        except BaseException as exc:  # noqa: BLE001 - forwarded to parent
            try:
                conn.send(("error", exc))
            except Exception:
                conn.send(("error", TrainingError(
                    f"{type(exc).__name__}: {exc}")))
    conn.close()


class ProcessCSDWorkerPool:
    """Persistent per-CSD worker *processes* — the GIL-free fan-out.

    Same ``map_ordered`` contract as :class:`CSDWorkerPool`, but each
    worker is a long-lived OS process with its own interpreter, so numpy
    update kernels and top-k compression from different devices run
    genuinely concurrently.  Differences that matter to callers:

    * **sticky routing** — item ``j`` always runs on worker ``j % workers``,
      so per-device state built by an init task (device files, handlers,
      error-feedback residuals) stays with the process that owns it;
    * **descriptor-only pipes** — payloads are checked on both send and
      receive: an ndarray anywhere raises :class:`TrainingError` (tensor
      bytes must travel through shared-memory segments);
    * **crash surfacing** — a worker that dies mid-task raises
      :class:`~repro.errors.WorkerCrashError` (a ``FaultError``) instead
      of hanging the parent on a silent pipe.

    Task exceptions are shipped back and re-raised; the pool remains
    usable afterwards.  ``close`` is idempotent and joins the workers.
    """

    def __init__(self, workers: int,
                 name_prefix: str = "csd-proc") -> None:
        if workers < 1:
            raise TrainingError(f"need at least one worker, got {workers}")
        self.workers = workers
        self._closed = False
        self._procs = []
        self._conns = []
        ctx = _mp_context()
        try:
            for index in range(workers):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                name = f"{name_prefix}_{index}"
                proc = ctx.Process(
                    target=_process_worker_main, args=(child_conn, name),
                    name=name, daemon=True)
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
        except BaseException:
            self.close()
            raise

    @property
    def is_parallel(self) -> bool:
        return True

    def map_ordered(self, fn: Callable[[T], R],
                    items: Iterable[T]) -> List[R]:
        """Run ``fn`` over ``items`` on the workers; results in order.

        ``fn`` must be a module-level (picklable) callable.  Every
        submitted task is awaited even on error, then the first task
        exception is re-raised; a dead worker raises
        :class:`WorkerCrashError` immediately.
        """
        if self._closed:
            raise TrainingError("worker pool is closed")
        work = list(items)
        if not work:
            return []
        for position, item in enumerate(work):
            worker = position % self.workers
            _check_payload(item, "task payload")
            try:
                self._conns[worker].send((fn, item))
            except (BrokenPipeError, OSError) as exc:
                raise self._crash(worker) from exc
        results: List[Optional[R]] = [None] * len(work)
        first_error: Optional[BaseException] = None
        for position in range(len(work)):
            worker = position % self.workers
            try:
                tag, payload = self._conns[worker].recv()
            except (EOFError, OSError) as exc:
                raise self._crash(worker) from exc
            if tag == "error":
                if first_error is None:
                    first_error = payload
            else:
                _check_payload(payload, "task result")
                results[position] = payload
        if first_error is not None:
            raise first_error
        return results

    def _crash(self, worker: int) -> WorkerCrashError:
        proc = self._procs[worker]
        proc.join(timeout=1.0)
        code = proc.exitcode
        return WorkerCrashError(
            f"worker process {proc.name!r} died "
            f"(exit code {code}) with tasks outstanding", worker=worker)

    def close(self) -> None:
        """Send stop sentinels, join, and reap the workers. Idempotent."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            conn.close()

    def __enter__(self) -> "ProcessCSDWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

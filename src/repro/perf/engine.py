"""Parallel pod-epoch placement engine with worker-resident pod state.

The engine executes a *batch* of independent placement solves — one per
pod — either in-process (``parallelism=1``, the exact serial fallback) or
across persistent worker processes.  Version 2 of the engine (the
"actually fast" rebuild) replaces the ship-everything protocol of the
original with three mechanisms:

* **Worker-resident pod state.**  Each pod is pinned to one worker
  process for the engine's lifetime (``ProcessPoolExecutor`` shards of
  one process each, so routing is exact).  The worker keeps the pod's
  controller — including cross-epoch solver state such as the Tang
  warm-start graph skeleton — and the structural problem arrays
  (capacities, per-app memory, last placement) alive between epochs.
  Controllers ship to a worker exactly once; warm starts therefore
  survive the process boundary without ever pickling a graph again.

* **Delta shipping.**  Per epoch the driver classifies each task against
  its mirror of what the pod's worker holds: when only the demand vector
  changed (the common drifting-demand case) it ships just that array; a
  changed server set, app set, capacity, or placement (fault paths, K3
  transfers) invalidates the resident state and re-ships the full
  problem.  Classification is byte-exact (the driver holds last epoch's
  arrays by reference, read-only, and compares by identity first, then
  by bytes), so a delta-solved epoch is *identical* to a full-shipped
  one — the parity property suite in ``tests/perf`` locks that down.

* **Columnar result encoding.**  Workers return solutions as a packed
  bitmap (placement) plus the nonzero load entries instead of a dense
  float matrix, and solver counters (``PERF_COUNTERS``) are written back
  onto the driver-side controller so statistics like ``warm_seeded`` are
  observable without shipping solver state.

Determinism contract (unchanged from v1, property-tested): results and
trace digests are bit-identical across parallelism levels.  The serial
path runs the same classification bookkeeping, so ``pool.dispatch`` /
``pool.merge`` trace events — which now carry delta/full payload sizes —
are byte-identical serial vs parallel.
"""

from __future__ import annotations

import os
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.placement.problem import PlacementProblem, PlacementSolution
from repro.placement.sparse import SparsePlacement, SparseSolution


class EngineProtocolError(RuntimeError):
    """Driver and worker disagree about resident pod state (an engine bug,
    never a user error — the parity suite exists to keep this unraisable)."""


@dataclass
class PlacementTask:
    """One pod's pure solve stage.

    Attributes
    ----------
    key:
        Caller identity (pod name).  Batches are merged in task order;
        the key additionally pins the pod to a worker process and indexes
        its resident state.
    problem:
        The placement instance to solve.
    controller:
        Any object with ``solve(problem) -> PlacementSolution``.  Must be
        picklable for ``parallelism > 1``; it ships to the pod's worker
        once and stays resident there.
    seed:
        When set and the controller has an ``rng`` attribute, the solving
        process replaces it with ``default_rng(seed)`` before solving —
        the hook that keeps randomized controllers identical across
        parallelism levels.
    trace_ctx:
        Opaque trace context (e.g. ``{"t": ..., "epoch": ...}``) used to
        stamp pool.dispatch/merge events.  It never crosses the process
        boundary — the driver keeps it and emits both events itself.
    """

    key: str
    problem: PlacementProblem
    controller: object
    seed: Optional[int] = None
    trace_ctx: Optional[dict] = None


def derive_seed(key: str, epoch) -> int:
    """Stable per-(pod, epoch) seed: identical across processes and runs
    (unlike ``hash()``, which is salted per interpreter)."""
    return zlib.crc32(f"{key}:{epoch}".encode()) & 0x7FFFFFFF


def solve_placement_task(task: PlacementTask) -> PlacementSolution:
    """Run one task's pure solve stage in the calling process.

    This is the whole solve semantics of the engine: re-seed the
    controller's RNG when the task carries a seed, then ``solve``.  The
    serial path calls it directly; workers run the same two steps against
    their resident controller.
    """
    controller = task.controller
    if task.seed is not None and hasattr(controller, "rng"):
        controller.rng = np.random.default_rng(task.seed)
    return controller.solve(task.problem)


# ------------------------------------------------------------------ codecs


#: The problem fields a pod's worker keeps resident between epochs — all
#: of a problem but its demand vector.
_RESIDENT_FIELDS = (
    "current", "server_cpu", "server_mem", "app_mem", "max_instances",
)


def _crc(arr, h: int = 0) -> int:
    """CRC32 over an array's exact bytes (dense ndarray or CSR placement),
    continuing from *h*."""
    if isinstance(arr, SparsePlacement):
        return zlib.crc32(arr.tobytes(), h)
    return zlib.crc32(np.ascontiguousarray(arr), h)


def _fingerprint(state) -> int:
    """CRC32 witness of a pod's resident fields, read off a problem or a
    worker's :class:`_ResidentPod` alike; driver and worker compare it
    before a delta solve."""
    shape = state.current.shape
    h = zlib.crc32(f"{shape[0]}x{shape[1]}".encode())
    for name in _RESIDENT_FIELDS:
        arr = getattr(state, name)
        if arr is not None:
            h = _crc(arr, h)
    return h


def _same(a, b) -> bool:
    """Byte-exact equality of two resident fields: identity first (the
    columnar loop hands back the very arrays it solved), then a
    comparison of shape, dtype and raw bytes."""
    if a is b:
        return True
    if a is None or b is None:
        return False
    if isinstance(a, SparsePlacement) or isinstance(b, SparsePlacement):
        return (
            isinstance(a, SparsePlacement)
            and isinstance(b, SparsePlacement)
            and a.shape == b.shape
            and _same(a.indptr, b.indptr)
            and _same(a.indices, b.indices)
        )
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and np.array_equal(_raw(a), _raw(b))
    )


def _raw(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr).reshape(-1).view(np.uint8)


def _arrays(fields: tuple):
    """The ndarrays behind resident fields (a CSR placement has two)."""
    for f in fields:
        if isinstance(f, SparsePlacement):
            yield f.indptr
            yield f.indices
        elif f is not None:
            yield f


def _encode_solution(sol) -> tuple:
    """Columnar wire encoding: packed placement bits + sparse load.

    The load matrix is zero almost everywhere (a few instances per app),
    so shipping (indices, values) of its nonzeros beats the dense float64
    matrix by an order of magnitude.  Decoding reconstructs the dense
    arrays exactly — same bytes, not approximately.  CSR solutions (mega
    scale) are already in wire shape and ship tagged as-is."""
    if isinstance(sol, SparseSolution):
        p = sol.placement
        return (
            "csr",
            p.shape,
            p.indptr,
            p.indices,
            np.ascontiguousarray(sol.load),
            int(sol.changes),
            float(sol.wall_time_s),
        )
    placement = np.ascontiguousarray(sol.placement)
    flat = np.ascontiguousarray(sol.load).reshape(-1)
    idx = np.flatnonzero(flat).astype(np.int64)
    return (
        placement.shape,
        np.packbits(placement),
        idx,
        flat[idx],
        int(sol.changes),
        float(sol.wall_time_s),
    )


def _decode_solution(enc: tuple):
    if enc[0] == "csr":
        _tag, shape, indptr, indices, load, changes, wall = enc
        return SparseSolution(
            placement=SparsePlacement(shape, indptr, indices, check=False),
            load=load,
            changes=changes,
            wall_time_s=wall,
        )
    shape, packed, idx, vals, changes, wall = enc
    n = int(shape[0] * shape[1])
    placement = np.unpackbits(packed, count=n).astype(bool).reshape(shape)
    load = np.zeros(n)
    load[idx] = vals
    return PlacementSolution(
        placement=placement,
        load=load.reshape(shape),
        changes=changes,
        wall_time_s=wall,
    )


# ---------------------------------------------------------- worker process

#: Per-process registry of resident pod state, keyed by task key.  Lives
#: in each worker; the driver mirrors what every worker holds and ships
#: demand-only deltas against that mirror.
_RESIDENT: dict = {}


class _ResidentPod:
    """One pod's state kept alive inside its worker between epochs."""

    __slots__ = (
        "controller",
        "server_cpu",
        "server_mem",
        "app_mem",
        "max_instances",
        "current",
    )

    def __init__(self, controller):
        self.controller = controller
        self.server_cpu = None
        self.server_mem = None
        self.app_mem = None
        self.max_instances = None
        self.current = None

    def install_problem(self, problem: PlacementProblem) -> None:
        self.server_cpu = problem.server_cpu
        self.server_mem = problem.server_mem
        self.app_mem = problem.app_mem
        self.max_instances = problem.max_instances
        self.current = problem.current

    def rebuild_problem(self, demand: np.ndarray) -> PlacementProblem:
        """A delta epoch's full problem: resident structure + resident
        predicted placement (= last solution) + the shipped demand."""
        return PlacementProblem(
            server_cpu=self.server_cpu,
            server_mem=self.server_mem,
            app_cpu_demand=demand,
            app_mem=self.app_mem,
            current=self.current,
            max_instances=self.max_instances,
        )


def _controller_counters(controller) -> Optional[dict]:
    names = getattr(type(controller), "PERF_COUNTERS", ())
    if not names:
        return None
    return {name: getattr(controller, name) for name in names}


def _worker_solve(key: str, mode: str, payload: tuple, seed: Optional[int]):
    """Worker entry point (module-level so it is picklable).

    ``mode`` is ``"full"`` (payload = problem + optionally the controller
    to install) or ``"delta"`` (payload = demand vector + the driver's
    fingerprint of what it believes this worker holds).
    """
    pod = _RESIDENT.get(key)
    if mode == "full":
        problem, controller = payload
        if controller is not None:
            pod = _ResidentPod(controller)
            _RESIDENT[key] = pod
        elif pod is None:  # pragma: no cover - protocol bug guard
            raise EngineProtocolError(f"full task without controller for {key!r}")
        pod.install_problem(problem)
    else:
        demand, expected_fp = payload
        if pod is None:  # pragma: no cover - protocol bug guard
            raise EngineProtocolError(f"delta task for non-resident pod {key!r}")
        if _fingerprint(pod) != expected_fp:  # pragma: no cover - guard
            raise EngineProtocolError(f"resident state diverged for {key!r}")
        problem = pod.rebuild_problem(demand)
    solution = solve_placement_task(
        PlacementTask(key=key, problem=problem, controller=pod.controller, seed=seed)
    )
    pod.current = solution.placement
    return _encode_solution(solution), _controller_counters(pod.controller)


# ----------------------------------------------------------------- driver


@dataclass
class _Dispatch:
    """Driver-side classification of one task (computed in every mode so
    trace events stay byte-identical across parallelism levels)."""

    mode: str  # "full" | "delta"
    ship_controller: bool
    nbytes: int


@dataclass
class _ResidentRecord:
    """The driver's mirror of one pod's worker-resident state.

    ``fields`` holds the resident arrays by reference, in
    ``_RESIDENT_FIELDS`` order, with ``current`` being the last solution.
    While held they are read-only, so an in-place write raises instead of
    silently desynchronising a delta solve; ``frozen`` lists the arrays
    this record made read-only, which are made writeable again when the
    record lets go of them (a controller may reuse its own buffer then).
    """

    controller: object
    fields: tuple
    frozen: tuple


def _hold(fields: tuple, frozen: tuple) -> tuple:
    """Make the arrays of *fields* read-only and writeable again those of
    the previous hold *frozen* that *fields* no longer holds; returns the
    arrays the new hold made read-only."""
    held = list(_arrays(fields))
    kept = []
    for arr in frozen:
        if any(arr is h for h in held):
            kept.append(arr)
        else:
            arr.flags.writeable = True
    for arr in held:
        if arr.flags.writeable:
            arr.flags.writeable = False
            kept.append(arr)
    return tuple(kept)


class PlacementEngine:
    """Fan independent placement solves across persistent worker processes.

    Parameters
    ----------
    parallelism:
        Worker count; defaults to ``os.cpu_count()``.  ``1`` solves
        in-process with the exact same code path (no pool is ever
        created), so it is the serial fallback the parallel path must
        match bit-for-bit.

    Notes
    -----
    Pods are pinned to workers (key -> worker shard), so *all* solves for
    a pod — batch epochs and single-task fault re-placements alike — hit
    the same resident controller, which is what keeps a parallel run's
    solver-state evolution in lockstep with a serial run's.  Closing the
    engine mid-run discards resident state; for controllers that keep
    warm-start state, reuse after ``close()`` restarts them cold.
    """

    def __init__(self, parallelism: Optional[int] = None):
        self.parallelism = (
            int(parallelism) if parallelism is not None else (os.cpu_count() or 1)
        )
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        self._pools: Optional[list[Optional[ProcessPoolExecutor]]] = None
        self._assignment: dict[str, int] = {}
        self._resident: dict[str, _ResidentRecord] = {}
        #: Optional trace bus (set by the datacenter facade).  Dispatch
        #: and merge events never mention worker identity or pool width,
        #: so traces are identical across parallelism levels.
        self.trace = None
        #: Batches dispatched (one per epoch in the datacenter loop).
        self.batches = 0
        #: Individual pod solves executed.
        self.tasks_solved = 0
        #: Pool-set creations — stays at <= 1 per engine lifetime, which
        #: is the point: workers persist across epochs.
        self.pool_spawns = 0
        #: Tasks shipped as demand-only deltas vs full problems.
        self.delta_tasks = 0
        self.full_tasks = 0
        #: Full ships that *invalidated* live resident state (topology or
        #: placement changed under the same controller — fault paths).
        self.invalidations = 0
        #: Payload bytes (logical array bytes, not pickle framing).
        self.bytes_shipped_delta = 0
        self.bytes_shipped_full = 0

    @property
    def is_parallel(self) -> bool:
        return self.parallelism > 1

    # -- worker routing ----------------------------------------------------
    def _slot(self, key: str) -> int:
        slot = self._assignment.get(key)
        if slot is None:
            slot = len(self._assignment) % self.parallelism
            self._assignment[key] = slot
        return slot

    def _pool(self, slot: int) -> ProcessPoolExecutor:
        if self._pools is None:
            self._pools = [None] * self.parallelism
            self.pool_spawns += 1
        if self._pools[slot] is None:
            self._pools[slot] = ProcessPoolExecutor(max_workers=1)
        return self._pools[slot]

    # -- classification ----------------------------------------------------
    def _classify(self, task: PlacementTask) -> _Dispatch:
        problem = task.problem
        fields = tuple(getattr(problem, f) for f in _RESIDENT_FIELDS)
        rec = self._resident.get(task.key)
        same_controller = rec is not None and rec.controller is task.controller
        if same_controller and all(map(_same, rec.fields, fields)):
            self.delta_tasks += 1
            nbytes = int(problem.app_cpu_demand.nbytes)
            self.bytes_shipped_delta += nbytes
            return _Dispatch("delta", False, nbytes)
        if same_controller:
            self.invalidations += 1
        self.full_tasks += 1
        nbytes = int(
            sum(f.nbytes for f in fields if f is not None)
            + problem.app_cpu_demand.nbytes
        )
        self.bytes_shipped_full += nbytes
        return _Dispatch("full", not same_controller, nbytes)

    # -- batch solve -------------------------------------------------------
    def solve_batch(
        self, tasks: Iterable[PlacementTask]
    ) -> list[PlacementSolution]:
        """Solve every task; results are returned in task order.

        The serial and parallel paths share :func:`solve_placement_task`
        *and* the delta-classification bookkeeping, so the only difference
        is where the solve runs and whether anything actually ships.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        self.batches += 1
        self.tasks_solved += len(tasks)
        dispatches = [self._classify(t) for t in tasks]
        tracing = self.trace is not None and self.trace.enabled
        ctx = tasks[0].trace_ctx
        if tracing and ctx is not None:
            self.trace.emit(
                "pool.dispatch", t=ctx.get("t", 0.0), epoch=ctx.get("epoch"),
                tasks=[t.key for t in tasks],
                delta=[t.key for t, d in zip(tasks, dispatches) if d.mode == "delta"],
                full=[t.key for t, d in zip(tasks, dispatches) if d.mode == "full"],
                bytes_delta=sum(d.nbytes for d in dispatches if d.mode == "delta"),
                bytes_full=sum(d.nbytes for d in dispatches if d.mode == "full"),
            )
        if self.parallelism == 1:
            results = [(solve_placement_task(t), None) for t in tasks]
        else:
            futures = []
            for task, disp in zip(tasks, dispatches):
                if disp.mode == "full":
                    payload = (
                        task.problem,
                        task.controller if disp.ship_controller else None,
                    )
                else:
                    payload = (
                        task.problem.app_cpu_demand,
                        _fingerprint(task.problem),
                    )
                futures.append(
                    self._pool(self._slot(task.key)).submit(
                        _worker_solve, task.key, disp.mode, payload, task.seed
                    )
                )
            try:
                raw = [f.result() for f in futures]
            except BaseException:
                # A dead worker took its resident state with it; reset so
                # the engine stays usable (everything re-ships full).
                self.close()
                raise
            results = [
                (_decode_solution(enc), counters) for enc, counters in raw
            ]
        solutions: list[PlacementSolution] = []
        for task, disp, (solution, counters) in zip(tasks, dispatches, results):
            if counters:
                # Absolute counter write-back: the resident controller's
                # statistics become observable on the driver-side object.
                for name, value in counters.items():
                    setattr(task.controller, name, value)
            problem = task.problem
            fields = tuple(
                solution.placement if f == "current" else getattr(problem, f)
                for f in _RESIDENT_FIELDS
            )
            rec = self._resident.get(task.key)
            self._resident[task.key] = _ResidentRecord(
                task.controller, fields, _hold(fields, rec.frozen if rec else ())
            )
            if tracing and task.trace_ctx is not None:
                tctx = task.trace_ctx
                # CRCs of the solution arrays: cheap witnesses that the
                # parallel merge is bit-identical to the serial solve.
                self.trace.emit(
                    "pool.merge", t=tctx.get("t", 0.0), key=task.key,
                    epoch=tctx.get("epoch"),
                    shipped=disp.mode, payload_bytes=disp.nbytes,
                    placement_crc=_crc(solution.placement),
                    load_crc=_crc(solution.load),
                )
            solutions.append(solution)
        return solutions

    def close(self) -> None:
        """Shut the worker pools down and drop resident state (idempotent)."""
        if self._pools is not None:
            for pool in self._pools:
                if pool is not None:
                    pool.shutdown()
            self._pools = None
        self._assignment.clear()
        for rec in self._resident.values():
            _hold((), rec.frozen)
        self._resident.clear()

    def __enter__(self) -> "PlacementEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

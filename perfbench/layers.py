"""Per-layer tracing for the traced benchmark run.

The program is not instrumented: :class:`LayerTracer` wraps the public
functions of each layer (class methods and module functions) while it is
installed, and puts the originals back when it is removed.  Every wrapped
call is a span; a span's *self* time is its wall time minus the time of
the timed calls made inside it.  Return values feed the count and ratio
metrics (RIP-view rebuilds, K2 moves, accepted opens, injected faults).

``PER_LAYER`` is the list the traced run prints, each metric with the
end-to-end metric and workload it is expected to move.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

#: name, unit, better, (end-to-end metric it should move, on workload).
#: ``ms`` is wall milliseconds per traced measured epoch, unscaled (divide
#: by ``host.slowdown`` for the reference host speed); ``setup.*``
#: metrics are per set-up (construction plus warm-up epochs).
PER_LAYER = [
    ("workload.streaming.cpu_demand.ms", "ms", "lower", "epoch_s_p50", "diurnal"),
    ("workload.requests.epoch_requests.ms", "ms", "lower", "e2e_requests_per_s", "traffic"),
    ("mega.run_epoch.self_ms", "ms", "lower", "epoch_s_p50", "diurnal"),
    ("mega.fault_surgery.ms", "ms", "lower", "epoch_s_tail", "churn"),
    ("mega.fault_surgery.calls", "count", "lower", "epoch_s_tail", "churn"),
    ("mega.knobs.ms", "ms", "lower", "epoch_s_tail", "churn"),
    ("mega.k2.moved_ratio", "ratio", "higher", "epoch_s_tail", "churn"),
    ("mega.changes_per_epoch", "count", "lower", "epoch_s_p50", "diurnal"),
    ("columnar.build_problem.ms", "ms", "lower", "epoch_s_p50", "diurnal"),
    ("columnar.apply.ms", "ms", "lower", "epoch_s_p50", "diurnal"),
    ("columnar.util_spread", "ratio", "lower", "epoch_s_p50", "diurnal"),
    ("engine.solve_batch.self_ms", "ms", "lower", "epoch_s_p50", "diurnal"),
    ("engine.delta_ratio", "ratio", "higher", "epoch_s_tail", "churn"),
    ("engine.bytes_shipped", "B", "lower", "epoch_s_tail", "churn"),
    ("sparse.solve.self_ms", "ms", "lower", "epoch_s_p50", "diurnal"),
    ("sparse.waterfill.ms", "ms", "lower", "epoch_s_p50", "diurnal"),
    ("sparse.count_changes.ms", "ms", "lower", "epoch_s_p50", "diurnal"),
    ("sparse.changes", "count", "lower", "epoch_s_p50", "diurnal"),
    ("controlplane.submit.calls", "count", "lower", "epoch_s_tail", "churn"),
    ("sim.run.ms", "ms", "lower", "epoch_s_tail", "churn"),
    ("bridge.sync.ms", "ms", "lower", "epoch_s_tail", "churn"),
    ("bridge.records_applied", "count", "lower", "epoch_s_tail", "churn"),
    ("setup.controlplane.submit.calls", "count", "lower", "setup_s", "traffic"),
    ("setup.sim.run.ms", "ms", "lower", "setup_s", "traffic"),
    ("setup.bridge.sync.ms", "ms", "lower", "setup_s", "traffic"),
    ("setup.bridge.records_applied", "count", "lower", "setup_s", "traffic"),
    ("dataplane.steer.self_ms", "ms", "lower", "e2e_requests_per_s", "traffic"),
    ("dataplane.refresh.rebuild_ratio", "ratio", "lower", "epoch_s_tail", "churn"),
    ("dns.resolve_batch.ms", "ms", "lower", "e2e_requests_per_s", "traffic"),
    ("dns.hit_ratio", "ratio", "higher", "e2e_requests_per_s", "traffic"),
    ("conn.try_open_batch.ms", "ms", "lower", "e2e_requests_per_s", "traffic"),
    ("conn.close_due.ms", "ms", "lower", "e2e_requests_per_s", "traffic"),
    ("conn.accept_ratio", "ratio", "higher", "e2e_requests_per_s", "traffic"),
    ("conn.alive", "count", "lower", "peak_rss_mb", "traffic"),
    ("conn.drop_rips.ms", "ms", "lower", "epoch_s_tail", "churn"),
    ("conn.dropped", "count", "lower", "epoch_s_tail", "churn"),
    ("faults.advance.ms", "ms", "lower", "epoch_s_tail", "churn"),
    ("faults.injected", "count", "lower", "epoch_s_tail", "churn"),
    ("audit.audit_now.ms", "ms", "lower", "epoch_s_p50", "churn"),
    ("audit.sweeps", "count", "lower", "epoch_s_p50", "churn"),
    ("trace.emit.self_ms", "ms", "lower", "epoch_s_p50", "churn"),
    ("trace.emit.calls", "count", "lower", "epoch_s_p50", "churn"),
    ("trace.epoch_s_p50", "s", "lower", "epoch_s_p50", "all"),
    ("untraced.epoch_s_p50", "s", "lower", "epoch_s_p50", "all"),
    ("trace.overhead_ratio", "ratio", "lower", "epoch_s_p50", "all"),
    ("host.slowdown", "ratio", "lower", "epoch_s_p50", "all"),
]


def _targets():
    """(span name, owner, attribute) of every wrapped layer function."""
    from repro.controlplane.bridge import RipJournalBridge
    from repro.controlplane.sharding import ShardedControlPlane
    from repro.core.columnar import ColumnarPodState
    from repro.core.mega import MegaScaleDriver
    from repro.dataplane.conntable import ColumnarConnTable
    from repro.dataplane.dnstable import VectorizedDnsTable
    from repro.dataplane.steering import ColumnarDataPlane
    from repro.faults.mega import MegaFaultInjector
    from repro.obs.audit import InvariantAuditor
    from repro.obs.trace import TraceBus
    from repro.perf.engine import PlacementEngine
    from repro.placement import sparse
    from repro.placement.sparse import SparseGreedyController
    from repro.sim import Environment
    from repro.workload.requests import RequestStream
    from repro.workload.streaming import StreamingWorkload

    return [
        ("workload.streaming.cpu_demand", StreamingWorkload, "cpu_demand"),
        ("workload.requests.epoch_requests", RequestStream, "epoch_requests"),
        ("mega.run_epoch", MegaScaleDriver, "run_epoch"),
        ("mega.fault_surgery", MegaScaleDriver, "lose_pod"),
        ("mega.fault_surgery", MegaScaleDriver, "restore_pod"),
        ("mega.fault_surgery", MegaScaleDriver, "crash_server"),
        ("mega.fault_surgery", MegaScaleDriver, "recover_server"),
        ("mega.knobs", MegaScaleDriver, "k1_resteer"),
        ("mega.k2", MegaScaleDriver, "k2_rehome"),
        ("columnar.build_problem", ColumnarPodState, "build_problem"),
        ("columnar.apply", ColumnarPodState, "apply"),
        ("engine.solve_batch", PlacementEngine, "solve_batch"),
        ("sparse.solve", SparseGreedyController, "solve"),
        ("sparse.waterfill", sparse, "sparse_waterfill"),
        ("sparse.count_changes", sparse, "sparse_count_changes"),
        ("controlplane.submit", ShardedControlPlane, "submit"),
        ("sim.run", Environment, "run"),
        ("bridge.sync", RipJournalBridge, "sync"),
        ("dataplane.steer", ColumnarDataPlane, "steer_epoch"),
        ("dataplane.refresh", ColumnarDataPlane, "refresh"),
        ("dns.resolve_batch", VectorizedDnsTable, "resolve_batch"),
        ("conn.try_open_batch", ColumnarConnTable, "try_open_batch"),
        ("conn.close_due", ColumnarConnTable, "close_due"),
        ("conn.drop_rips", ColumnarConnTable, "drop_rips"),
        ("faults.advance", MegaFaultInjector, "advance"),
        ("audit.audit_now", InvariantAuditor, "audit_now"),
        ("trace.emit", TraceBus, "emit"),
    ]


class Spans:
    """Per-name call count, inclusive and self seconds, and outcome
    counters, accumulated over one phase (set-up or measured epochs)."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)


class LayerTracer:
    """Wraps the layer functions while installed (``with tracer:``)."""

    def __init__(self):
        self.spans = Spans()
        self._stack: list[list] = []  # [name, child seconds]
        self._open: dict[str, int] = defaultdict(int)
        self._saved: list[tuple] = []

    def _observe(self, name: str, result) -> None:
        c = self.spans.counts
        if name == "mega.k2":
            c["k2.moved"] += bool(result)
        elif name == "dataplane.refresh":
            c["refresh.rebuilt"] += bool(result)
        elif name == "conn.try_open_batch":
            c["conn.offered"] += int(result.shape[0])
            c["conn.accepted"] += int(np.count_nonzero(result))
        elif name == "faults.advance":
            c["faults.injected"] += int(result)
        elif name == "sparse.solve":
            c["sparse.changes"] += int(result.changes)

    def _wrap(self, name: str, fn):
        stack, open_, perf = self._stack, self._open, time.perf_counter

        def timed(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            open_[name] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                open_[name] -= 1
                spans = self.spans
                spans.calls[name] += 1
                spans.self_s[name] += dur - frame[1]
                if not open_[name]:  # recursion counts once
                    spans.incl[name] += dur
                if stack:
                    stack[-1][1] += dur
            self._observe(name, result)
            return result

        timed.__wrapped__ = fn
        return timed

    def __enter__(self) -> "LayerTracer":
        for name, owner, attr in _targets():
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)


def layer_metrics(
    epoch_spans: Spans,
    setup_spans: Spans,
    epochs: int,
    extra: dict,
) -> dict[str, float]:
    """The ``PER_LAYER`` values from one traced run.

    *epoch_spans* covers *epochs* traced measured epochs; *setup_spans*
    one traced set-up.  *extra* carries values read off the driver
    (engine counters, conn-table state, utilization spread, the traced
    and untraced epoch medians)."""
    s, c = epoch_spans, epoch_spans.counts
    per = 1.0 / max(epochs, 1)

    def ms(name, table=s.incl, scale=per):
        return table[name] * 1e3 * scale

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "workload.streaming.cpu_demand.ms": ms("workload.streaming.cpu_demand"),
        "workload.requests.epoch_requests.ms": ms("workload.requests.epoch_requests"),
        "mega.run_epoch.self_ms": ms("mega.run_epoch", s.self_s),
        "mega.fault_surgery.ms": ms("mega.fault_surgery"),
        "mega.fault_surgery.calls": s.calls["mega.fault_surgery"] * per,
        "mega.knobs.ms": ms("mega.knobs") + ms("mega.k2"),
        "mega.k2.moved_ratio": ratio(c["k2.moved"], s.calls["mega.k2"]),
        "columnar.build_problem.ms": ms("columnar.build_problem"),
        "columnar.apply.ms": ms("columnar.apply"),
        "engine.solve_batch.self_ms": ms("engine.solve_batch", s.self_s),
        "sparse.solve.self_ms": ms("sparse.solve", s.self_s),
        "sparse.waterfill.ms": ms("sparse.waterfill"),
        "sparse.count_changes.ms": ms("sparse.count_changes"),
        "sparse.changes": c["sparse.changes"] * per,
        "controlplane.submit.calls": s.calls["controlplane.submit"] * per,
        "sim.run.ms": ms("sim.run"),
        "bridge.sync.ms": ms("bridge.sync"),
        "setup.controlplane.submit.calls": float(
            setup_spans.calls["controlplane.submit"]
        ),
        "setup.sim.run.ms": ms("sim.run", setup_spans.incl, 1.0),
        "setup.bridge.sync.ms": ms("bridge.sync", setup_spans.incl, 1.0),
        "dataplane.steer.self_ms": ms("dataplane.steer", s.self_s),
        "dataplane.refresh.rebuild_ratio": ratio(
            c["refresh.rebuilt"], s.calls["dataplane.refresh"]
        ),
        "dns.resolve_batch.ms": ms("dns.resolve_batch"),
        "conn.try_open_batch.ms": ms("conn.try_open_batch"),
        "conn.close_due.ms": ms("conn.close_due"),
        "conn.accept_ratio": ratio(c["conn.accepted"], c["conn.offered"]),
        "conn.drop_rips.ms": ms("conn.drop_rips"),
        "faults.advance.ms": ms("faults.advance"),
        "faults.injected": c["faults.injected"] * per,
        "audit.audit_now.ms": ms("audit.audit_now"),
        "audit.sweeps": s.calls["audit.audit_now"] * per,
        "trace.emit.self_ms": ms("trace.emit", s.self_s),
        "trace.emit.calls": s.calls["trace.emit"] * per,
    }
    out.update(extra)
    missing = {name for name, *_ in PER_LAYER} - out.keys()
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: float(out[name]) for name, *_ in PER_LAYER}

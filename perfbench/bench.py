"""Whole-epoch benchmark of the mega loop (``MegaScaleDriver``).

One process, ``parallelism=1``, closed loop: epochs run back to back and
every epoch steers a fixed-size request batch, so a slower epoch simply
means fewer epochs per wall second.  All timings are host wall time,
reported at the reference host speed (see :class:`HostSpeed`); the
simulated epoch length (``epoch_s``) is a workload setting.

A run sets the driver up ``SETUPS`` times (construction plus warm-up
epochs; ``setup_s`` is their median), keeps the last one, and times
``measured_epochs`` further ``run_epoch`` calls.  The epoch count is
fixed by the run length, never by how fast the epochs go, so two
versions of the program always measure the same simulated epochs and
their outputs digest can be compared.
"""

from __future__ import annotations

import gc
import hashlib
import math
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.mega import (
    MegaConfig,
    MegaControlPlaneConfig,
    MegaScaleDriver,
    MegaSteeringConfig,
)
from repro.faults.mega import MegaFaultInjector
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.obs.audit import InvariantAuditor
from repro.obs.trace import TraceBus
from repro.perf.rss import peak_rss_mb

#: The seed the benchmark is tuned on, and one kept back: a later speed
#: claim must also hold on the held-out seed.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Host-speed kernel runs after each set-up (one follows every epoch),
#: and how many epochs each side of an epoch judge the speed it ran at.
SETUP_SPEED_SAMPLES = 5
SPEED_WINDOW = 2
#: Epochs beyond the tail percentile, and the fewest measured epochs that
#: leave a tail strictly above the median.
TAIL_BEYOND = 10
MIN_MEASURED = 2 * TAIL_BEYOND + 2
#: The existing mega gate on satisfied demand.
SATISFIED_MIN = 0.98
#: Live sessions count as levelled when one epoch moves them by less
#: than this share.
LEVEL_TOLERANCE = 0.02

#: Wall time of :class:`HostSpeed`'s kernel on the reference box (2-core
#: x86 VM) at quiet host speed: it read 23-25 ms while the same box ran
#: the ``traffic`` epochs 1.9x slower than their quiet 0.46 s.
REFERENCE_KERNEL_S = 0.0125

#: name, unit, better.  ``changes_per_epoch`` is printed with the others
#: but is not a bounded metric: it is 0 by design on ``traffic``.
END_TO_END = [
    ("epoch_s_p50", "s", "lower"),
    ("epoch_s_tail", "s", "lower"),
    ("e2e_requests_per_s", "req/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("satisfied_fraction_min", "ratio", "higher"),
    ("request_ok_ratio", "ratio", "higher"),
]
UNBOUNDED = [("changes_per_epoch", "instances", "lower")]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: driver settings as functions of the seed."""

    name: str
    why: str
    mega: Callable[[int], MegaConfig]
    control_plane: MegaControlPlaneConfig
    steering: Callable[[int], MegaSteeringConfig]
    #: Host seconds per epoch on the reference box (2-core x86 VM); sizes
    #: the measured epoch count from the run length.
    nominal_epoch_s: float
    #: Seeded pod/server fault cycles, forced K2 drains and an online
    #: invariant auditor on the trace bus.
    churn: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="diurnal",
            why=(
                "5,000-server pods walking a compressed day (epoch_s=3600): "
                "placement does most of the work; steering is a few percent"
            ),
            # The paper's 60 pods take ~2.8 s per epoch, which cannot fit
            # 22 timed runs in the time budget.  21 paper-sized pods keep
            # Section I's per-pod work (5,000 servers, 100k apps of 20
            # VMs); at 20 or fewer every app would cover every pod and
            # all pods would solve the same problem.
            mega=lambda seed: MegaConfig(
                n_pods=21, n_apps=105_000, epoch_s=3600.0, seed=seed
            ),
            control_plane=MegaControlPlaneConfig(),
            steering=lambda seed: MegaSteeringConfig(seed=seed),
            nominal_epoch_s=0.74,
        ),
        Workload(
            name="traffic",
            why=(
                "quick scale, 1M requests per epoch over 256 apps x 2 VIPs: "
                "placement idles on its no-change path, steering dominates"
            ),
            mega=lambda seed: MegaConfig.quick(epoch_s=60.0, seed=seed),
            control_plane=MegaControlPlaneConfig(wired_apps=256, vips_per_app=2),
            steering=lambda seed: MegaSteeringConfig(
                requests_per_epoch=1_000_000, knob_period=2, seed=seed
            ),
            nominal_epoch_s=0.46,
        ),
        Workload(
            name="churn",
            why=(
                "quick scale with seeded pod and server fail/repair cycles, "
                "K1/K2 and forced drains, audited every epoch: the write side"
            ),
            mega=lambda seed: MegaConfig.quick(epoch_s=60.0, seed=seed),
            control_plane=MegaControlPlaneConfig(wired_apps=32, vips_per_app=2),
            steering=lambda seed: MegaSteeringConfig(
                requests_per_epoch=200_000, knob_period=3, seed=seed
            ),
            nominal_epoch_s=0.21,
            churn=True,
        ),
    )
}

#: Churn fault script: every pod fails on average once per
#: ``POD_MTBF_S`` and stays down ``POD_MTTR_S`` on average; a seeded
#: sample of ``CRASH_SERVERS`` servers crash and recover on their own
#: cycle.  Forced K2 drains come every ``FORCED_K2_EVERY`` epochs.
POD_MTBF_S = 14_400.0
POD_MTTR_S = 120.0
CRASH_SERVERS = 240
SERVER_MTBF_S = 1_800.0
SERVER_MTTR_S = 180.0
FORCED_K2_EVERY = 5


class HostSpeed:
    """How fast the shared host runs right now, against the reference box.

    On the reference box, other tenants of the shared host slowed every
    kind of work by up to 2.3x for over an hour, which no run length
    absorbs.  A fixed kernel timed after every epoch tracks that speed:
    interpreter work, cache-resident numpy (sort, bincount, unique) and a
    memory-bound gather over a 16 MB array, the three kinds of work an
    epoch does.
    :meth:`scale` turns wall times into times at the reference speed.
    The kernel does not touch the program, so a change to the program
    moves the scaled times exactly as it moves wall time.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._keys = rng.integers(0, 1 << 40, 100_000)
        self._weights = rng.random(100_000)
        self._big = rng.integers(0, 1 << 40, 2_000_000)
        self._gather = rng.integers(0, self._big.shape[0], 500_000)

    def kernel_s(self) -> float:
        """Wall time of one run of the kernel."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(50_000):
            acc += i & 7
        np.sort(self._keys)
        np.bincount(self._keys % 20_000, weights=self._weights, minlength=20_000)
        np.unique(self._keys % 10_000)
        self._big[self._gather].sum()
        np.cumsum(self._big)
        return time.perf_counter() - t0

    @staticmethod
    def scale(walls: list[float], kernel_s: list[float]) -> list[float]:
        """Each wall time at the reference speed, judged by the median of
        the kernel times taken within ``SPEED_WINDOW`` places of it."""
        out = []
        for i, wall in enumerate(walls):
            near = kernel_s[max(0, i - SPEED_WINDOW) : i + SPEED_WINDOW + 1]
            out.append(wall * REFERENCE_KERNEL_S / statistics.median(near))
        return out


def measured_epochs(workload: Workload, seconds: float) -> int:
    """Epochs to time: the run length at the nominal epoch cost."""
    return max(MIN_MEASURED, math.ceil(seconds / workload.nominal_epoch_s))


def tail(values: list[float]) -> Optional[tuple[float, float]]:
    """``(value, percentile)``: the highest percentile with at least
    ``TAIL_BEYOND`` samples beyond it, or ``None`` when that percentile
    would not lie above the median (too few samples)."""
    n = len(values)
    if n < MIN_MEASURED:
        return None
    ordered = sorted(values)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def fault_schedule(cfg: MegaConfig, seed: int, start_s: float, span_s: float):
    """Seeded pod-loss/restore and server crash/recover cycles over
    ``[start_s, start_s + span_s)``."""
    rng = np.random.default_rng([seed, 0xFA17])
    picks = rng.choice(cfg.n_servers, CRASH_SERVERS, replace=False)
    servers = [
        f"pod-{i // cfg.servers_per_pod:03d}-s{i % cfg.servers_per_pod:06d}"
        for i in sorted(picks.tolist())
    ]
    pods = [f"pod-{p:03d}" for p in range(cfg.n_pods)]
    cycles = FaultSchedule.random(
        seed, span_s, servers=(), pods=pods, mtbf_s=POD_MTBF_S, mttr_s=POD_MTTR_S
    ).events + FaultSchedule.random(
        seed, span_s, servers=servers, mtbf_s=SERVER_MTBF_S, mttr_s=SERVER_MTTR_S
    ).events
    return FaultSchedule(FaultEvent(ev.t + start_s, ev.kind, ev.target) for ev in cycles)


@dataclass
class Setup:
    """A driver after construction and warm-up, ready to measure."""

    driver: MegaScaleDriver
    auditor: InvariantAuditor
    reports: list = field(default_factory=list)
    seconds: float = 0.0


def set_up(workload: Workload, seed: int, measured: int) -> Setup:
    """Construct the driver and run the warm-up epochs (timed together).

    The measured window opens once the engine has made its first full
    controller ship and the live-session count has levelled off: each
    session lives at most ``max_duration_epochs`` epochs, so after that
    many epochs plus one the count is stationary."""
    cfg = workload.mega(seed)
    cp = workload.control_plane
    sc = workload.steering(seed)
    vip_slots = cp.n_shards * cp.switches_per_shard * cp.max_vips
    if cp.wired_apps * cp.vips_per_app > vip_slots:
        raise ValueError(
            f"{workload.name}: {cp.wired_apps} apps x {cp.vips_per_app} VIPs "
            f"exceed {vip_slots} VIP slots on the switches"
        )
    warmup = sc.max_duration_epochs + 1
    t0 = time.perf_counter()
    bus = TraceBus(keep_events=False) if workload.churn else None
    driver = MegaScaleDriver(cfg, trace=bus, control_plane=cp, steering=sc)
    auditor = InvariantAuditor(columnar=driver)
    if workload.churn:
        auditor.attach(bus)
        MegaFaultInjector(
            driver,
            fault_schedule(cfg, seed, warmup * cfg.epoch_s, measured * cfg.epoch_s),
        )
        rng = np.random.default_rng([seed, 0xD2A1])
        apps = [driver._app_name(int(g)) for g in driver._wired_gids]
        for e in range(warmup + 1, warmup + measured, FORCED_K2_EVERY):
            app = apps[int(rng.integers(len(apps)))]
            vips = sorted(driver.dataplane.dns.zone(app))
            driver.queue_knob(e, ("k2", app, vips[int(rng.integers(len(vips)))], True))
    setup = Setup(driver=driver, auditor=auditor)
    alive = []
    for _ in range(warmup):
        setup.reports.append(driver.run_epoch())
        alive.append(driver.dataplane.conn.alive_count)
    setup.seconds = time.perf_counter() - t0
    if driver.engine.full_tasks < cfg.n_pods or setup.reports[-1].full_tasks:
        raise RuntimeError("warm-up ended before the engine's first full ship")
    if abs(alive[-1] - alive[-2]) > LEVEL_TOLERANCE * alive[-1]:
        raise RuntimeError(f"live sessions still moving after warm-up: {alive}")
    return setup


def outputs_digest(reports, registry_fingerprint: int) -> str:
    """SHA-256 over every epoch's behaviour: placement changes, satisfied
    CPU, RIP fingerprint and steering counters.  Equal for equal seeds on
    any correct version of the program; a speed change must keep it."""
    h = hashlib.sha256()
    for r in reports:
        h.update(
            repr(
                (
                    r.epoch, r.started, r.stopped, r.vms, r.pods_down,
                    float(r.demand_cpu).hex(), float(r.satisfied_cpu).hex(),
                    float(r.dropped_cpu).hex(), r.rip_records, r.rip_fingerprint,
                    r.requests, r.dns_hits, r.dns_misses, r.conns_opened,
                    r.conns_rejected, r.unserved, r.conns_closed, r.conns_dropped,
                )
            ).encode()
        )
    h.update(str(registry_fingerprint).encode())
    return h.hexdigest()


@dataclass
class RunResult:
    workload: str
    seed: int
    metrics: dict
    checks: dict
    digest: str
    attempted: int
    failed: int
    tail_percentile: float
    measured: int
    #: Unscaled wall-time values of the timing metrics.
    wall: dict
    slowdown: float
    layer: Optional[dict] = None

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


def run(
    workload: Workload,
    seed: int,
    measured: int,
    setups: int = SETUPS,
    traced: bool = False,
) -> RunResult:
    """Set up *setups* times, then time *measured* epochs on the last
    set-up.  With *traced*, every other measured epoch (and the last
    set-up) runs under the :class:`~layers.LayerTracer`."""
    from layers import LayerTracer, Spans, layer_metrics

    if measured < MIN_MEASURED:
        raise ValueError(f"need at least {MIN_MEASURED} measured epochs")
    tracer = LayerTracer() if traced else None
    setup_spans, epoch_spans = Spans(), Spans()
    speed = HostSpeed()
    setup_walls, setup_scaled = [], []
    setup = None
    for i in range(setups):
        if setup is not None:
            setup.driver.close()
            setup = None
            gc.collect()
        trace_setup = tracer is not None and i == setups - 1
        if trace_setup:
            tracer.spans = setup_spans
        with tracer if trace_setup else nullcontext():
            setup = set_up(workload, seed, measured)
        kernel = [speed.kernel_s() for _ in range(SETUP_SPEED_SAMPLES)]
        setup_walls.append(setup.seconds)
        setup_scaled.append(setup.seconds * REFERENCE_KERNEL_S / statistics.median(kernel))

    driver = setup.driver
    setup_records = driver.bridge.records_applied
    if tracer is not None:
        tracer.spans = epoch_spans
    walls, kernel, reports, traced = [], [], [], []
    alive, util_spread = [], []
    for i in range(measured):
        on = tracer is not None and i % 2 == 0
        with tracer if on else nullcontext():
            t0 = time.perf_counter()
            report = driver.run_epoch()
            walls.append(time.perf_counter() - t0)
        kernel.append(speed.kernel_s())
        reports.append(report)
        traced.append(on)
        if on:
            alive.append(driver.dataplane.conn.alive_count)
            utils = [p.utilization for p, up in zip(driver.pods, driver.pod_alive) if up]
            util_spread.append(max(utils) - min(utils))

    setup.auditor.audit_now(reports[-1].t)
    scaled = HostSpeed.scale(walls, kernel)
    requests = sum(r.requests for r in reports)
    opened = sum(r.conns_opened for r in reports)
    rejected = sum(r.conns_rejected for r in reports)
    unserved = sum(r.unserved for r in reports)
    every = setup.reports + reports
    tail_value, tail_pct = tail(scaled)
    p50 = statistics.median(scaled)
    checks = {
        "auditor_ok": setup.auditor.ok,
        "requests_balance": all(
            r.conns_opened + r.conns_rejected + r.unserved == r.requests
            and r.requests == driver._steer_config.requests_per_epoch
            for r in every
        ),
        "bridge_verify": driver.bridge.verify(),
        "satisfied_min": min(r.satisfied_fraction for r in reports) >= SATISFIED_MIN,
        "tail_not_below_median": tail_value >= p50,
    }
    metrics = {
        "epoch_s_p50": p50,
        "epoch_s_tail": tail_value,
        "e2e_requests_per_s": requests / sum(scaled),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": peak_rss_mb(),
        "satisfied_fraction_min": min(r.satisfied_fraction for r in reports),
        "request_ok_ratio": opened / requests,
        "changes_per_epoch": sum(r.changes for r in reports) / len(reports),
    }
    result = RunResult(
        workload=workload.name,
        seed=seed,
        metrics=metrics,
        checks=checks,
        digest=outputs_digest(every, driver.bridge.registry.fingerprint()),
        attempted=requests,
        failed=rejected + unserved,
        tail_percentile=tail_pct,
        measured=len(walls),
        wall={
            "epoch_s_p50": statistics.median(walls),
            "epoch_s_tail": tail(walls)[0],
            "e2e_requests_per_s": requests / sum(walls),
            "setup_s": statistics.median(setup_walls),
        },
        slowdown=statistics.median(kernel) / REFERENCE_KERNEL_S,
    )
    if tracer is not None:
        traced_reports = [r for r, on in zip(reports, traced) if on]
        n = len(traced_reports)

        def total(field):
            return sum(getattr(r, field) for r in traced_reports)

        tasks = total("delta_tasks") + total("full_tasks")
        dns = total("dns_hits") + total("dns_misses")
        traced_p50 = statistics.median(s for s, on in zip(scaled, traced) if on)
        untraced_p50 = statistics.median(s for s, on in zip(scaled, traced) if not on)
        result.layer = layer_metrics(
            epoch_spans,
            setup_spans,
            n,
            {
                "mega.changes_per_epoch": total("changes") / n,
                "columnar.util_spread": sum(util_spread) / n,
                "engine.delta_ratio": total("delta_tasks") / tasks,
                "engine.bytes_shipped": total("bytes_shipped") / n,
                "bridge.records_applied": total("rip_records") / n,
                "setup.bridge.records_applied": setup_records,
                "dns.hit_ratio": total("dns_hits") / dns if dns else 0.0,
                "conn.alive": sum(alive) / n,
                "conn.dropped": total("conns_dropped") / n,
                "trace.epoch_s_p50": traced_p50,
                "untraced.epoch_s_p50": untraced_p50,
                "trace.overhead_ratio": traced_p50 / untraced_p50 - 1.0,
                "host.slowdown": result.slowdown,
            },
        )
    driver.close()
    return result

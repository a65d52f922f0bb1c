"""Mega-scale driver: determinism, parallel parity, delta shipping, memory.

Tiny configs keep per-pod ``S x A`` under the dense-delegation limit so
these tests exercise the exact bit-identical path; the quick/full scales
(bulk sparse path) are covered by the ``repro mega`` bench lane and CI's
mega-smoke job.
"""

import numpy as np
import pytest

from repro.core import MegaConfig, MegaControlPlaneConfig, MegaScaleDriver
from repro.core.mega import MegaSteeringConfig


def tiny(**over):
    return MegaConfig.tiny(**over)


def pod_signature(driver):
    return [
        (p.placement.tobytes(), p.load.tobytes()) for p in driver.pods
    ]


# ------------------------------------------------------------- config


def test_config_arithmetic():
    cfg = MegaConfig.full()
    assert cfg.n_servers == 300_000
    assert cfg.cover == 20
    assert cfg.n_vms_nominal == 6_000_000
    assert cfg.total_cpu_demand == pytest.approx(
        0.55 * 300_000 * 32.0
    )


def test_config_validation():
    with pytest.raises(ValueError):
        MegaConfig(n_pods=0)
    with pytest.raises(ValueError):
        MegaConfig(target_utilization=1.5)
    with pytest.raises(ValueError):
        MegaConfig(vms_per_app=0)


@pytest.mark.parametrize(
    "field, build",
    [
        pytest.param(
            "chunk_requests", lambda: MegaSteeringConfig(chunk_requests=0),
            id="chunk_requests=0",
        ),
        pytest.param(
            "requests_per_epoch",
            lambda: MegaSteeringConfig(requests_per_epoch=0),
            id="requests_per_epoch=0",
        ),
        pytest.param(
            "violator_fraction",
            lambda: MegaSteeringConfig(violator_fraction=1.5),
            id="violator_fraction=1.5",
        ),
        pytest.param("epoch_s", lambda: MegaConfig(epoch_s=0), id="epoch_s=0"),
        pytest.param("epoch_s", lambda: MegaConfig(epoch_s=-5), id="epoch_s=-5"),
        pytest.param(
            "chunk_apps", lambda: MegaConfig(chunk_apps=0), id="chunk_apps=0"
        ),
        pytest.param(
            "wired_apps", lambda: MegaControlPlaneConfig(wired_apps=0),
            id="wired_apps=0",
        ),
        pytest.param(
            "vips_per_app", lambda: MegaControlPlaneConfig(vips_per_app=0),
            id="vips_per_app=0",
        ),
        # 10,000 apps x 1 VIP overflow 2 shards x 2 switches x 256 VIPs.
        pytest.param(
            "wired_apps", lambda: MegaControlPlaneConfig(wired_apps=10_000),
            id="wired_apps-over-vip-slots",
        ),
        pytest.param(
            "wired_apps",
            lambda: MegaControlPlaneConfig(
                wired_apps=40, vips_per_app=2, n_shards=1,
                switches_per_shard=1, max_vips=64,
            ),
            id="wired_apps-x-vips_per_app-over-vip-slots",
        ),
        # Spans two configs: more wired apps than the 60-app tiny fleet.
        pytest.param(
            "wired_apps",
            lambda: MegaScaleDriver(
                tiny(), control_plane=MegaControlPlaneConfig(wired_apps=61)
            ),
            id="wired_apps-over-n_apps",
        ),
    ],
)
def test_invalid_config_raises_naming_the_field(field, build):
    with pytest.raises(ValueError, match=rf"^{field}="):
        build()


def test_quick_still_uses_bulk_sparse_path():
    cfg = MegaConfig.quick()
    # Per-pod S x A above the dense limit: quick really smokes the
    # O(nnz) path, not the small-scale delegation.
    per_pod_apps = cfg.n_apps * cfg.cover // cfg.n_pods
    assert cfg.servers_per_pod * per_pod_apps > cfg.dense_limit


# ------------------------------------------------------------ bootstrap


def test_bootstrap_covers_every_app_and_fits_memory():
    with MegaScaleDriver(tiny()) as driver:
        covered = np.zeros(driver.config.n_apps, dtype=int)
        for pod in driver.pods:
            assert (pod.mem_headroom() >= 0).all()
            counts = pod.placement.instance_counts()
            assert (counts >= 1).all()  # every covered app has an instance
            covered[pod.app_gids] += 1
        # The arithmetic cover rule: each app appears in exactly `cover` pods.
        assert (covered == driver.config.cover).all()


def test_vip_pool_fits_every_wired_vip():
    """600 apps x 3 VIPs need 1,800 addresses; a pool sized from the app
    count alone (1,200) once left 200 wired apps with no VIP at all."""
    cp = MegaControlPlaneConfig(wired_apps=600, vips_per_app=3, max_vips=512)
    driver = MegaScaleDriver(
        tiny(n_apps=600, servers_per_pod=200, server_mem_gb=1024),
        control_plane=cp,
    )
    with driver:
        assert driver.control_plane.errored == 0
        for gid in range(cp.wired_apps):
            vips = driver.control_plane.vips_of(driver._app_name(gid))
            assert len(vips) == cp.vips_per_app


def test_bootstrap_vip_failure_raises(monkeypatch):
    import repro.lbswitch.addresses as addresses

    real_pool = addresses.PUBLIC_VIP_POOL
    monkeypatch.setattr(
        addresses, "PUBLIC_VIP_POOL", lambda size: real_pool(10)
    )
    with pytest.raises(RuntimeError, match="10 of 20 bootstrap new_vip"):
        MegaScaleDriver(
            tiny(), control_plane=MegaControlPlaneConfig(wired_apps=20)
        )


def test_pod_app_gids_partition_is_balanced():
    with MegaScaleDriver(tiny()) as driver:
        sizes = {p.n_apps for p in driver.pods}
        assert max(sizes) - min(sizes) <= 1


# ----------------------------------------------------------- epoch loop


def test_run_is_deterministic_across_drivers():
    with MegaScaleDriver(tiny()) as a, MegaScaleDriver(tiny()) as b:
        ra = a.run(3)
        rb = b.run(3)
    assert pod_signature(a) == pod_signature(b)
    for x, y in zip(ra, rb):
        assert x.satisfied_cpu == y.satisfied_cpu
        assert x.changes == y.changes
        assert x.demand_cpu == y.demand_cpu


def test_parallel_engine_matches_serial():
    with MegaScaleDriver(tiny()) as serial:
        serial.run(2)
        sig_serial = pod_signature(serial)
    with MegaScaleDriver(tiny(parallelism=2)) as parallel:
        parallel.run(2)
        sig_parallel = pod_signature(parallel)
    assert sig_serial == sig_parallel


def test_delta_shipping_engages_after_first_epoch():
    with MegaScaleDriver(tiny()) as driver:
        first, second = driver.run(2)
    assert first.full_tasks == driver.config.n_pods
    assert first.delta_tasks == 0
    assert second.delta_tasks == driver.config.n_pods
    assert second.full_tasks == 0
    assert second.bytes_shipped < first.bytes_shipped


def test_reports_are_sane():
    with MegaScaleDriver(tiny()) as driver:
        reports = driver.run(2)
    for r in reports:
        assert r.vms == driver.n_vms
        assert 0.0 < r.satisfied_fraction <= 1.0 + 1e-9
        assert r.peak_rss_mb > 0
        assert r.wall_s >= 0
    # Chunked demand fingerprint was verified against materialized.
    assert driver.demand_fingerprint is not None


def test_trace_events_emitted():
    from repro.obs import TraceBus

    bus = TraceBus()
    with MegaScaleDriver(tiny(), trace=bus) as driver:
        driver.run(1)
    kinds = {e.kind for e in bus.events}
    assert "mega.chunk" in kinds
    assert "mega.epoch" in kinds


def test_demand_scatter_splits_across_cover():
    """Each pod's local demand is the app's global demand / cover; the
    per-epoch total equals the workload total exactly."""
    with MegaScaleDriver(tiny()) as driver:
        driver._scatter_demand(0.0, 0)
        total = sum(float(b.sum()) for b in driver._demand_buffers)
        expect = float(driver.workload.cpu_demand(0.0).sum())
        assert total == pytest.approx(expect, rel=1e-12)

"""The parallel placement engine's contracts: exact serial fallback,
bit-identical parallel results, persistent pool, state round-trips."""

import numpy as np
import pytest

from repro.experiments.e02_placement_scalability import (
    make_instance,
    split_into_pods,
)
from repro.perf.engine import (
    PlacementEngine,
    PlacementTask,
    derive_seed,
    solve_placement_task,
)
from repro.placement import (
    DistributedController,
    GreedyController,
    TangController,
)


def make_tasks(n_servers=60, pod_size=20, seed=0, controller=GreedyController):
    problem = make_instance(n_servers, seed=seed)
    pods = split_into_pods(problem, pod_size)
    return [
        PlacementTask(key=f"pod-{i}", problem=p, controller=controller())
        for i, p in enumerate(pods)
    ]


def signatures(solutions):
    return [(s.placement.tobytes(), s.load.tobytes()) for s in solutions]


def test_serial_engine_matches_direct_solve():
    tasks = make_tasks()
    direct = [GreedyController().solve(t.problem) for t in tasks]
    with PlacementEngine(1) as engine:
        batched = engine.solve_batch(tasks)
    assert signatures(batched) == signatures(direct)


@pytest.mark.parametrize("controller", [GreedyController, TangController])
def test_parallel_matches_serial_bitwise(controller):
    serial_tasks = make_tasks(controller=controller)
    parallel_tasks = make_tasks(controller=controller)
    with PlacementEngine(1) as serial, PlacementEngine(2) as parallel:
        s = serial.solve_batch(serial_tasks)
        p = parallel.solve_batch(parallel_tasks)
    assert signatures(p) == signatures(s)


def test_seeded_distributed_identical_across_parallelism():
    def tasks():
        made = make_tasks(controller=lambda: DistributedController(rng=None))
        for t in made:
            t.seed = derive_seed(t.key, 0)
        return made

    with PlacementEngine(1) as serial, PlacementEngine(2) as parallel:
        s = serial.solve_batch(tasks())
        p = parallel.solve_batch(tasks())
    assert signatures(p) == signatures(s)


def test_pool_persists_across_batches():
    with PlacementEngine(2) as engine:
        for _ in range(3):
            engine.solve_batch(make_tasks())
        assert engine.pool_spawns == 1
        assert engine.batches == 3


def test_serial_engine_never_spawns_pool():
    with PlacementEngine(1) as engine:
        engine.solve_batch(make_tasks())
        assert engine.pool_spawns == 0


def test_single_task_batch_routes_to_resident_worker():
    """Even a one-task batch goes through the pod's pinned worker: a
    fault-path re-placement must see the same resident controller state
    as the batch epochs, or parallel would diverge from serial."""
    with PlacementEngine(4) as engine:
        tasks = make_tasks(n_servers=20, pod_size=20)
        assert len(tasks) == 1
        engine.solve_batch(tasks)
        assert engine.pool_spawns == 1
        assert engine.full_tasks == 1 and engine.delta_tasks == 0


def test_counters_write_back_from_resident_workers():
    """Solver statistics accrue inside worker-resident controllers; after
    every batch the engine copies the PERF_COUNTERS attributes back onto
    the driver-side controller objects (absolute values)."""
    problem = make_instance(40, seed=1)
    pods = split_into_pods(problem, 20)
    controllers = [TangController() for _ in pods]
    with PlacementEngine(2) as engine:
        for epoch in range(2):
            current = pods if epoch == 0 else epoch_pods
            solutions = engine.solve_batch(
                [
                    PlacementTask(key=f"pod-{i}", problem=p, controller=c)
                    for i, (p, c) in enumerate(zip(current, controllers))
                ]
            )
            from repro.placement import PlacementProblem

            epoch_pods = [
                PlacementProblem(
                    server_cpu=p.server_cpu,
                    server_mem=p.server_mem,
                    app_cpu_demand=p.app_cpu_demand,
                    app_mem=p.app_mem,
                    current=s.placement,
                )
                for p, s in zip(pods, solutions)
            ]
    for c in controllers:
        # One max-flow call per load-shift round, per epoch, and the
        # second epoch seeded from the worker-resident previous flow.
        assert c.maxflow_calls >= 2
        assert c.warm_seeded > 0
        assert c.skeleton_rebuilds == 1


def test_second_epoch_ships_demand_only_deltas():
    serial_counts = {}
    for parallelism in (1, 2):
        pods = split_into_pods(make_instance(40, seed=1), 20)
        controllers = [GreedyController() for _ in pods]
        with PlacementEngine(parallelism) as engine:
            for _ in range(3):
                solutions = engine.solve_batch(
                    [
                        PlacementTask(key=f"pod-{i}", problem=p, controller=c)
                        for i, (p, c) in enumerate(zip(pods, controllers))
                    ]
                )
                from repro.placement import PlacementProblem

                pods = [
                    PlacementProblem(
                        server_cpu=p.server_cpu,
                        server_mem=p.server_mem,
                        app_cpu_demand=p.app_cpu_demand,
                        app_mem=p.app_mem,
                        current=s.placement,
                    )
                    for p, s in zip(pods, solutions)
                ]
            serial_counts[parallelism] = (
                engine.full_tasks,
                engine.delta_tasks,
                engine.bytes_shipped_full,
                engine.bytes_shipped_delta,
            )
        assert engine.full_tasks == 2  # first epoch only
        assert engine.delta_tasks == 4  # epochs 2..3
        assert engine.bytes_shipped_delta < engine.bytes_shipped_full
    # Classification bookkeeping is mode-independent (trace parity).
    assert serial_counts[1] == serial_counts[2]


def test_resident_arrays_are_held_read_only_by_reference():
    """The driver keeps last epoch's arrays by reference: read-only while
    held (an in-place write raises), writeable again once released.  A
    byte-equal copy of the placement still ships a delta; a changed one
    invalidates."""
    from repro.placement import PlacementProblem

    (problem,) = split_into_pods(make_instance(20, seed=3), 20)
    controller = GreedyController()

    def task(current):
        return PlacementTask(
            key="pod",
            problem=PlacementProblem(
                server_cpu=problem.server_cpu,
                server_mem=problem.server_mem,
                app_cpu_demand=problem.app_cpu_demand,
                app_mem=problem.app_mem,
                current=current,
            ),
            controller=controller,
        )

    with PlacementEngine(1) as engine:
        (first,) = engine.solve_batch([task(problem.current)])
        assert not first.placement.flags.writeable
        assert not problem.server_cpu.flags.writeable
        with pytest.raises(ValueError):
            problem.server_cpu[0] = 1.0
        (second,) = engine.solve_batch([task(first.placement.copy())])
        assert engine.delta_tasks == 1
        assert first.placement.flags.writeable  # released
        assert not second.placement.flags.writeable
        changed = second.placement.copy()
        changed[0, 0] = not changed[0, 0]
        engine.solve_batch([task(changed)])
        assert engine.invalidations == 1
    assert problem.server_cpu.flags.writeable


def test_server_crash_invalidates_resident_warm_start_skeleton():
    """A server crash changes the pod's topology.  The driver must notice
    the structural change and reship the full problem (an invalidation,
    not a demand-only delta), and the worker-resident Tang controller
    must rebuild its warm-start graph skeleton instead of diff-updating
    a graph that still contains the dead server.  Serial and parallel
    must agree on the resulting placement."""
    from repro.core.pod import Pod
    from repro.core.pod_manager import PodManager
    from repro.hosts.server import PhysicalServer, ServerSpec
    from repro.lbswitch.addresses import PRIVATE_RIP_POOL
    from repro.workload.apps import AppSpec
    from repro.workload.demand import ConstantDemand

    apps = [f"a{i}" for i in range(4)]
    specs = {a: AppSpec(a, 0.25, ConstantDemand(1.0)) for a in apps}
    demands = {a: 0.8 for a in apps}
    outcomes = {}
    for parallelism in (1, 2):
        pod = Pod("p0", max_servers=100, max_vms=1000)
        for i in range(5):
            pod.add_server(PhysicalServer(f"p0-s{i}", ServerSpec(1.0, 32.0)))
        pm = PodManager(pod, PRIVATE_RIP_POOL(10_000), controller=TangController())
        with PlacementEngine(parallelism) as engine:
            pm.solve_fn = lambda mgr, plan: engine.solve_batch(
                [
                    PlacementTask(
                        key=mgr.pod.name, problem=plan.problem,
                        controller=mgr.controller,
                    )
                ]
            )[0]
            pm.run_epoch(demands, specs, t=0.0)
            pm.run_epoch(demands, specs, t=1.0)
            assert pm.controller.skeleton_rebuilds == 1
            assert pm.controller.warm_seeded > 0
            pm.crash_server(pod.servers[2])
            report = pm.replace_lost(specs, t=2.0)
            assert engine.invalidations == 1
            assert engine.full_tasks == 2 and engine.delta_tasks == 1
        # The 4-server problem has a different topology: the resident
        # skeleton was rebuilt from scratch, not diff-updated.
        assert pm.controller.skeleton_rebuilds == 2
        outcomes[parallelism] = (
            round(report.satisfied_cpu, 12),
            sorted(
                (s.name, vm.app, round(vm.cpu_slice, 12))
                for s in pod.servers
                for vm in s.vms
            ),
        )
    assert outcomes[1] == outcomes[2]


def test_empty_batch():
    with PlacementEngine(2) as engine:
        assert engine.solve_batch([]) == []
        assert engine.pool_spawns == 0


def test_invalid_parallelism():
    with pytest.raises(ValueError):
        PlacementEngine(0)


def test_close_is_idempotent():
    engine = PlacementEngine(2)
    engine.solve_batch(make_tasks())
    engine.close()
    engine.close()
    # A fresh pool is spawned if the engine is used again after close.
    engine.solve_batch(make_tasks())
    assert engine.pool_spawns == 2
    engine.close()


def test_derive_seed_stable_and_distinct():
    assert derive_seed("pod-0", 3) == derive_seed("pod-0", 3)
    assert derive_seed("pod-0", 3) != derive_seed("pod-1", 3)
    assert derive_seed("pod-0", 3) != derive_seed("pod-0", 4)
    assert 0 <= derive_seed("pod-0", "boot") < 2**31


def test_solve_placement_task_reseeds_rng():
    task = make_tasks(controller=lambda: DistributedController(rng=None))[0]
    task.seed = 123
    sol_a = solve_placement_task(task)
    task.controller.rng = np.random.default_rng(999)  # would diverge if kept
    sol_b = solve_placement_task(task)
    assert sol_a.placement.tobytes() == sol_b.placement.tobytes()

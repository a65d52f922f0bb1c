"""Golden digest for the O(nnz) bulk placement path.

Every quick- and full-scale mega run solves its pods with
:meth:`SparseGreedyController._solve_bulk` (``S * A`` is far above
``dense_limit``), a path the dense differential harnesses cannot reach.
This test pins its exact output — placement CSR bytes, per-entry float
loads and the ``changes`` count — over a seeded multi-epoch run, so a
rewrite of the bulk solve must stay bit-identical, not merely feasible.

The run covers the branches the mega loop hits: drifting demand, apps
going idle (the stop-idle rescue keeps their last instance), a per-app
instance cap that binds, a server crash (``drop_row``) and a
pod-loss restart from an empty placement.
"""

import hashlib

import numpy as np

from repro.experiments.e02_placement_scalability import make_instance
from repro.placement import (
    PlacementProblem,
    SparseGreedyController,
    SparsePlacement,
)
from repro.placement.sparse import sparse_count_changes

# SHA-256 over every solve of `bulk_run` below, computed on the bulk
# solve as it stood before its sort-free rewrite (np.unique / lexsort /
# intersect1d); the rewrite must reproduce it bit for bit.
BULK_GOLDEN = "87888412539e2ac05a62728c881138aca7f6ecde579ab5ff6e9638c4a37a2383"

N_SERVERS = 80
EPOCHS = 8
CRASHED_ROW = 17


def bulk_run():
    """Solve a seeded sequence of bulk problems; yields each
    ``(problem, solution)`` in order, adopting every solution."""
    base = make_instance(N_SERVERS, apps_per_server=5.0, seed=21)
    rng = np.random.default_rng(2014)
    ctrl = SparseGreedyController(dense_limit=1)
    server_cpu, server_mem = base.server_cpu, base.server_mem
    n_apps = base.n_apps
    cap = np.full(n_apps, 4, dtype=np.int64)
    current = SparsePlacement.from_dense(base.current)
    demand = base.app_cpu_demand.copy()

    def solve(demand):
        problem = PlacementProblem(
            server_cpu=server_cpu,
            server_mem=server_mem,
            app_cpu_demand=demand,
            app_mem=base.app_mem,
            current=current,
            max_instances=cap,
        )
        return problem, ctrl.solve(problem)

    for epoch in range(EPOCHS):
        # Per-app drift, renormalized to a load factor walking 0.6..0.95.
        demand = demand * rng.uniform(0.7, 1.4, n_apps)
        idle = rng.choice(n_apps, n_apps // 20, replace=False)
        demand[idle] = 0.0
        # A few hot apps need several servers' worth of CPU: the bulk
        # starts then run over several rounds and hit the cap.
        hot = rng.choice(n_apps, 6, replace=False)
        demand[hot] = rng.uniform(2.0, 4.0, hot.size)
        level = 0.6 + 0.05 * epoch
        demand *= level * server_cpu.sum() / demand.sum()
        problem, sol = solve(demand)
        yield problem, sol
        current = sol.placement

    # A server crashes: its row leaves the pod and the pod re-solves.
    current, _kept = current.drop_row(CRASHED_ROW)
    server_cpu = np.delete(server_cpu, CRASHED_ROW)
    server_mem = np.delete(server_mem, CRASHED_ROW)
    problem, sol = solve(demand)
    yield problem, sol
    current = sol.placement

    # Pod loss: every VM is gone and the pod restarts from nothing.
    current = SparsePlacement.empty(current.shape)
    yield solve(demand)


def bulk_digest() -> str:
    h = hashlib.sha256()
    for _problem, sol in bulk_run():
        h.update(sol.placement.indptr.tobytes())
        h.update(sol.placement.indices.tobytes())
        h.update(sol.load.tobytes())
        h.update(np.int64(sol.changes).tobytes())
    return h.hexdigest()


def test_bulk_run_exercises_its_branches_feasibly():
    solves = list(bulk_run())
    assert len(solves) == EPOCHS + 2
    for problem, sol in solves:
        sol.validate(problem)
        # The solver's own churn count is the entry-key symmetric diff.
        assert sol.changes == sparse_count_changes(
            problem.current, sol.placement
        )
        # Stop-idle never drops an app's last instance; the pod-loss
        # solve starts from nothing and places only demanded apps.
        if problem.current.nnz:
            placed = problem.current.instance_counts() > 0
            assert (sol.placement.instance_counts()[placed] >= 1).all()
    # The rescue branch fired: some zero-demand app kept an instance.
    assert any(
        ((p.app_cpu_demand == 0) & (s.placement.instance_counts() > 0)).any()
        for p, s in solves
    )
    # The instance cap bound somewhere.
    assert any(
        (s.placement.instance_counts() == p.max_instances).any()
        for p, s in solves
    )
    assert solves[-1][0].current.nnz == 0
    assert solves[-1][1].changes == solves[-1][1].placement.nnz > 0


def test_bulk_run_matches_golden_digest():
    assert bulk_digest() == BULK_GOLDEN

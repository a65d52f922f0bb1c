"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload traffic --seed 1 --seconds 12 --trace 0

Run from the repository root; the program is imported from ``src``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (every other measured epoch traced) with the
tracing overhead.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _import_program():
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program sources under {src}; run from the repo root")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import bench
    import layers

    return bench, layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bench, layers = _import_program()
    if args.workload not in bench.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(bench.WORKLOADS)}")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    workload = bench.WORKLOADS[args.workload]
    measured = bench.measured_epochs(workload, args.seconds)
    res = bench.run(workload, args.seed, measured, traced=bool(args.trace))

    print(f"# workload {res.workload} seed {res.seed}: {res.measured} measured epochs")
    if args.trace:
        table = [(name, unit, better) for name, unit, better, *_ in layers.PER_LAYER]
        values = res.layer
        for name, unit, _better, moves, on in layers.PER_LAYER:
            print(f"{name:40s} {values[name]:16.6g} {unit:6s} -> {moves} on {on}")
        print(
            f"tracing overhead: traced epoch_s_p50 {values['trace.epoch_s_p50']:.4f} s "
            f"vs untraced {values['untraced.epoch_s_p50']:.4f} s "
            f"({100 * values['trace.overhead_ratio']:+.1f}%)"
        )
    else:
        table = bench.END_TO_END
        values = res.metrics
        for name, unit, better in bench.END_TO_END + bench.UNBOUNDED:
            print(f"{name:24s} {values[name]:16.6g} {unit:9s} ({better} is better)")
        print(
            f"epoch_s_tail is p{res.tail_percentile:.1f} of {res.measured} "
            f"measured epochs, {bench.TAIL_BEYOND} beyond it"
        )
        print(
            f"timings above are at reference host speed; this host ran "
            f"{res.slowdown:.3f}x slower, unscaled wall: "
            + ", ".join(f"{k} {v:.6g}" for k, v in res.wall.items())
        )
    for check, ok in res.checks.items():
        print(f"check {check}: {'ok' if ok else 'FAILED'}")
    print(f"outputs digest {res.digest}")
    print(
        json.dumps(
            {
                "correct": res.correct,
                "attempted": res.attempted,
                "failed": res.failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit, _better in table
                },
            }
        )
    )
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())

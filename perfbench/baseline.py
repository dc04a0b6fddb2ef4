"""Re-measure the ROADMAP Baseline rows with the benchmark's tracer.

    python3 perfbench/baseline.py

Uses the shipped networks unmodified and prints one JSON line per row:
steady state of ``two_cavity_cascade`` at truncation 6, the adaptive
201-sample simulation of the same network, and the per-layer split of
composing ``vec_elim_loop``.  Run from the root of a source checkout.
"""

from __future__ import annotations

import json
import sys
import time

from run import ROOT, SRC, pin_blas_threads


def traced(fn, package):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(package)
    t0 = time.perf_counter()
    try:
        fn()
    finally:
        wall = time.perf_counter() - t0
        tracer.uninstall()
    layers = {k: round(v, 4) for k, v in sorted(tracer.self_times().items(), key=lambda kv: -kv[1])}
    return wall, layers, tracer


def main() -> int:
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import slhnet
    from workloads import run_cli

    net = ROOT / "networks"
    drive = ["--drive", "drive=coherent(alpha=0.25)"]
    rows = {
        "steady_state_t6": ["steady-state", str(net / "two_cavity_cascade.qnet")] + drive,
        "adaptive_cascade_t6": ["simulate", str(net / "two_cavity_cascade.qnet"), "--t1", "20"] + drive,
        "compose_vec_elim_loop_t5": ["compose", str(net / "vec_elim_loop.qnet")],
    }
    run_cli(["check", str(net / "driven_cavity.qnet")])  # warm-up
    for name, argv in rows.items():
        wall, layers, tracer = traced(lambda: run_cli(argv), slhnet)
        calls = tracer.calls()
        print(json.dumps({"row": name, "argv": argv, "wall_s": round(wall, 4),
                          "rhs_calls": calls.get("dynamics.rhs", 0),
                          "guard_calls": calls.get("dynamics.guard", 0), "self_s": layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

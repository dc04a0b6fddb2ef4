"""slhnet benchmark: time-to-answer end to end, cost per layer when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; slhnet is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, the per-layer ones with
``--trace 1``.  The line before it records the environment, the inputs
and every per-pass number.  Workloads and metrics are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
# Extra timed runs of the small task after each task run: one 0.1 s
# sample is too noisy, and the machine's speed drifts within a pass.
SMALL_REPEATS_PER_SLOT = 2
# calibrate() takes about this long when the machine runs at full speed.
CALIB_REFERENCE_S = 0.010
# calibrate_sparse_lu() takes about this long between tasks at full speed.
SPARSE_LU_REFERENCE_S = 0.35
# An untraced pass runs calibrate_sparse_lu() before a run of a scaled
# task unless it last ran less than this long ago in the pass.
SPARSE_LU_EVERY_S = 2.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    """Cap the BLAS thread pools at nproc before numpy is imported."""
    cap = nproc()
    for var in BLAS_THREAD_VARS:
        try:
            want = int(os.environ.get(var, cap))
        except ValueError:
            want = cap
        os.environ[var] = str(max(1, min(want, cap)))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def environment(blas_threads: int) -> dict:
    import hashlib
    import platform

    import numpy as np
    import scipy

    sha = None  # a plain source checkout has no history; src_sha256 still names the code
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "slhnet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc(),
        "blas_threads": blas_threads,
    }


def measure_setup(args) -> list[float]:
    """Wall time of fresh processes that import slhnet and generate the inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return samples


def _timed(task, tracer=None):
    if tracer is not None:
        tracer.task = task.name
    t0 = time.perf_counter()
    try:
        answer, error = task.run(), None
    except Exception as exc:  # a failed task is counted, the run goes on
        answer, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.task = None
    return elapsed, answer, error


def _checked(task, answer, error):
    if error is None:
        try:
            task.check(answer)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    return error


def calibrate() -> float:
    """Seconds a fixed interpreter-bound kernel takes; it does not touch slhnet.

    The machine this benchmark was tuned on changes speed for seconds to
    minutes at a time (see README.md, "Reference speed").  ``small_s``
    comes from short, interpreter-bound tasks, so each of its samples is
    divided by this kernel's time, measured just before, and scaled to
    CALIB_REFERENCE_S.
    """
    t0 = time.perf_counter()
    table, acc = {}, 0
    for i in range(60000):
        table[i & 1023] = acc
        acc = (acc + i * 7) % 1000003
    return time.perf_counter() - t0


_LU_MATRIX = []


def calibrate_sparse_lu() -> float:
    """Seconds one sparse LU factorisation of a fixed matrix takes.

    It does not touch slhnet.  The matrix is a sum of four random
    tridiagonal 7x7 factors, each acting on one slot of a 7^4 = 2401
    space, so it fills in like a Liouvillian of two modes; it is built
    once with a fixed seed.  This memory-bound kernel follows the
    machine's speed changes over tasks that are mostly sparse linear
    algebra (``Task.scaled``), so each of their runs is divided by the
    run of this kernel just before it and multiplied by
    SPARSE_LU_REFERENCE_S.
    """
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    if not _LU_MATRIX:
        rng = np.random.default_rng(0)
        n, slots = 7, 4

        def cplx(size):
            return rng.normal(size=size) + 1j * rng.normal(size=size)

        total = None
        for slot in range(slots):
            factor = sp.diags([cplx(n - 1), cplx(n), cplx(n - 1)], [-1, 0, 1])
            term = sp.kron(sp.kron(sp.identity(n ** slot), factor),
                           sp.identity(n ** (slots - slot - 1)))
            total = term if total is None else total + term
        _LU_MATRIX.append(total.tocsc())
    t0 = time.perf_counter()
    spla.splu(_LU_MATRIX[0])
    return time.perf_counter() - t0


def run_pass(workload, tracer=None):
    """Run every task once, the large one ``large_runs`` times, and check
    the answers outside the timed part.

    Untraced passes also time the small task SMALL_REPEATS_PER_SLOT more
    times after each task run, so its samples spread over the whole pass,
    run ``calibrate`` before every task and small-task repeat, and run
    ``calibrate_sparse_lu`` before runs of scaled tasks.  ``tasks`` maps
    each task to its run times, and ``lu_before`` to the index in
    ``sparse_lu`` of the kernel run just before each scaled run.
    """
    from workloads import CliResult

    gc.collect()
    small_task = next((t for t in workload.tasks if t.name == workload.small), None)
    plain = tracer is None
    repeats = SMALL_REPEATS_PER_SLOT if small_task and plain else 0
    times, lu_before, calib, lu, small, answers = {}, {}, {}, [], [], []
    lu_at = -math.inf
    for task in workload.tasks:
        runs = workload.large_runs if plain and task.name == workload.large else 1
        calib[task.name] = calibrate() if plain else None
        times[task.name], lu_before[task.name] = [], []
        for k in range(runs):
            scaled = plain and task.scaled
            if scaled and time.perf_counter() - lu_at >= SPARSE_LU_EVERY_S:
                lu.append(calibrate_sparse_lu())
                lu_at = time.perf_counter()
            elapsed, answer, error = _timed(task, tracer)
            times[task.name].append(elapsed)
            lu_before[task.name].append(len(lu) - 1 if scaled else None)
            answers.append((task, task.name if k == 0 else f"{task.name}/run{k + 1}", answer, error))
            for _ in range(repeats):
                c = calibrate()
                elapsed, answer, error = _timed(small_task)
                small.append((elapsed, c))
                answers.append((small_task, f"{small_task.name}#{len(small)}", answer, error))
    errors = {label: err for task, label, answer, error in answers
              if (err := _checked(task, answer, error))}
    if small_task and plain:
        small.append((times[small_task.name][0], calib[small_task.name]))
    cli_answers = {label: a for _, label, a, _ in answers if isinstance(a, CliResult)}
    return {
        "tasks": times,
        "lu_before": lu_before,
        "calib": calib,
        "sparse_lu": lu,
        "small_samples": small,
        "attempted": len(answers),
        "total_s": sum(statistics.median(t) for t in times.values()),
        "errors": errors,
        "cli": {
            "requests": len(cli_answers),
            "failed": sum(1 for label in cli_answers if label in errors),
            "output_bytes": sum(len(a.out.encode()) + len(a.err.encode()) for a in cli_answers.values()),
        },
    }


def _small(workload, passes) -> float:
    """The small task's time at the reference speed (see ``calibrate``).

    For ``cli_corpus``, whose small end is the median request, each
    request is scaled and the per-pass medians are combined.
    """
    if workload.small:
        ratios = [t / c for p in passes for t, c in p["small_samples"]]
    else:
        ratios = [statistics.median(statistics.median(t) / p["calib"][name]
                                    for name, t in p["tasks"].items())
                  for p in passes]
    return CALIB_REFERENCE_S * statistics.median(ratios)


def _scaled_runs(p, name) -> list[float]:
    """A task's run times in untraced pass ``p``, those of a scaled task
    at the reference speed (see ``calibrate_sparse_lu``)."""
    lu = p["sparse_lu"]
    return [t if i is None else t * SPARSE_LU_REFERENCE_S / lu[i]
            for t, i in zip(p["tasks"][name], p["lu_before"][name])]


def _total(p) -> float:
    return sum(statistics.median(_scaled_runs(p, name)) for name in p["tasks"])


def _large_name(workload, p) -> str:
    return workload.large or max(p["tasks"], key=lambda name: statistics.median(p["tasks"][name]))


def run_passes(seconds: float, step):
    """Call step() while a further call would end by about the time budget.

    A call is started if at least half of it fits, so no run overshoots
    the budget by more than half a pass.
    """
    start = time.perf_counter()
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(step())
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last / 2 > seconds:
            return results


PER_LAYER_TIMES = {
    "netlang.parse_s": "netlang.parse",
    "netlang.elaborate_self_s": "netlang.elaborate",
    "components.instantiate_s": "components.instantiate",
    "hilbert.embed_s": "hilbert.embed",
    "slh.feedback_multi_s": "slh.feedback_multi",
    "slh.concat_s": "slh.concat",
    "slh.triple_to_json_s": "slh.serialize",
    "dynamics.generator_s": "dynamics.generator",
    "dynamics.steady_state_s": "dynamics.steady_state",
    "dynamics.integrate_self_s": "dynamics.integrate",
    "dynamics.rhs_s": "dynamics.rhs",
    "dynamics.guard_s": "dynamics.guard",
    "dynamics.expect_s": "dynamics.expect",
    "dynamics.format_s": "dynamics.format",
    "linear.extract_linear_s": "linear.extract_linear",
    "linear.transfer_function_s": "linear.transfer_function",
    "reduction.eliminate_triple_s": "reduction.eliminate",
    "cli.main_self_s": "cli.main",
}
PER_LAYER_CALLS = {
    "components.instantiate_calls": "components.instantiate",
    "hilbert.embed_calls": "hilbert.Operator.embed",
    "slh.feedback_multi_calls": "slh.feedback_multi",
    "linear.transfer_function_calls": "linear.transfer_function",
    "dynamics.rhs_calls": "dynamics.rhs",
    "dynamics.guard_calls": "dynamics.guard",
}
COUNTERS = ("slh.loop_dim", "slh.reduced_nnz",
            "dynamics.generator_dim", "dynamics.generator_nnz", "dynamics.steady_residual")


def traced_pass(workload, package):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(package)
    try:
        p = run_pass(workload, tracer)
    finally:
        tracer.uninstall()
    layers = tracer.self_times()
    calls = tracer.calls()
    values = {name: layers.get(layer, 0.0) for name, layer in PER_LAYER_TIMES.items()}
    values.update({name: calls.get(fn, 0) for name, fn in PER_LAYER_CALLS.items()})
    values.update({name: tracer.counters.get(name, 0) for name in COUNTERS})
    values.update({f"cli.{k}": v for k, v in p["cli"].items()})
    values["trace.coverage"] = tracer.root_time() / p["total_s"]
    p["layers"] = values
    p["per_task"] = {task.name: tracer.self_times(task.name) for task in workload.tasks}
    p["spans"] = tracer.dump()
    return p


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny rungs, for the smoke test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "slhnet" / "__init__.py").is_file():
        print(f"error: no slhnet sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    blas_threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    scale = "smoke" if args.smoke else "full"

    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r} (have {', '.join(workloads.NAMES)})",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.build(args.workload, args.seed, WORKDIR, ROOT / "networks", scale)
        return 0

    setup = [] if args.trace else measure_setup(args)
    wl = workloads.build(args.workload, args.seed, WORKDIR, ROOT / "networks", scale)
    import slhnet

    # Let lazy imports and thread pools start before timing; a failure
    # here shows again, counted, in the timed passes.
    warm = wl.small or wl.tasks[0].name
    _timed(next(t for t in wl.tasks if t.name == warm))
    if any(t.scaled for t in wl.tasks):
        calibrate_sparse_lu()  # builds its matrix

    if args.trace:
        pairs = run_passes(args.seconds, lambda: (run_pass(wl), traced_pass(wl, slhnet)))
        plain = [a for a, _ in pairs]
        traced = [b for _, b in pairs]
        passes = plain + traced
        metrics = {name: statistics.median(p["layers"][name] for p in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (statistics.median(p["total_s"] for p in traced)
                                       - statistics.median(p["total_s"] for p in plain))
        WORKDIR.mkdir(parents=True, exist_ok=True)
        spans_file = WORKDIR / f"spans-{args.workload}-{args.seed}.json"
        spans_file.write_text(json.dumps(traced[-1]["spans"]))
        for p in traced:
            del p["spans"]
    else:
        passes = run_passes(args.seconds, lambda: run_pass(wl))
        metrics = {
            "setup_s": statistics.median(setup),
            "total_s": statistics.median(_total(p) for p in passes),
            "small_s": _small(wl, passes),
            "large_s": statistics.median(t for p in passes for t in _scaled_runs(p, _large_name(wl, p))),
        }

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["errors"]) for p in passes)
    for p in passes:
        for name, message in p["errors"].items():
            print(f"FAILED {args.workload}/{name}: {message}", file=sys.stderr)
    if not args.trace:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["ok_frac"] = (attempted - failed) / attempted

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": scale,
        "env": environment(blas_threads),
        "inputs": wl.inputs,
        "notes": wl.notes,
        "setup_s_samples": setup,
        "large_s_passes": [p["tasks"][_large_name(wl, p)] for p in passes],
        "total_s_passes": [p["total_s"] for p in passes],
        "passes": passes,
    }
    print(json.dumps({"perfbench_record": record}, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of shiftk: seeded closed-loop workloads with checked answers.

Run from the root of a source checkout (no install step; ``src`` is put on
the import path):

    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 40 --trace 0

A run sets up its inputs several times (the median is ``setup_s``), then
repeats passes over the workload's fixed inputs for about ``--seconds``
seconds, checking every answer.  Times are the program's CPU time scaled
to a reference host speed, which the run samples as it goes (see
``calibration.py``): on a virtual machine that shares its host, wall time
counts the time the hypervisor gives the CPU to someone else, and even CPU
time moves with the neighbours' load.  A human-readable report goes to standard
error; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured with no wrapper installed.
With ``--trace 1`` untraced and traced passes alternate, the metrics are the
per-layer ones from the traced passes, and the spans are written as JSON
lines under ``perfbench/_work/traces``.  The exit code is 1 when an answer
was wrong and 2 when the checkout holds no ``src/shiftk``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibration import Calibrator  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Session  # noqa: E402

SETUP_REPEATS = 21

END_TO_END = {          # name -> unit
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "presentations.parse_s": "s",
    "presentations.contexts_s": "s",
    "presentations.contexts_n": "count",
    "presentations.self_s": "s",
    "partitions.build_chain_s": "s",
    "partitions.m_stable": "count",
    "partitions.stab_level": "count",
    "partitions.self_s": "s",
    "intlinalg.snf_s": "s",
    "intlinalg.snf_calls": "count",
    "intlinalg.snf_unique_frac": "ratio",
    "intlinalg.snf_dim_max": "count",
    "intlinalg.snf_transform_bits_max": "bits",
    "intlinalg.self_s": "s",
    "invariants.k_groups_s": "s",
    "invariants.dimension_triple_s": "s",
    "invariants.compare_s": "s",
    "invariants.self_s": "s",
    "transforms.higher_block_s": "s",
    "transforms.self_s": "s",
    "model.verify_representation_s": "s",
    "model.verify_structure_s": "s",
    "model.verify_composition_s": "s",
    "model.checks_n": "count",
    "model.self_s": "s",
    "cli.self_s": "s",
    "cli.cache_hits": "count",
    "cli.cache_misses": "count",
    "trace.overhead_s": "s",
    "trace.spans_n": "count",
}

PACKAGE_MODULES = ("cli", "errors", "intlinalg", "invariants", "model",
                   "partitions", "presentations", "transforms", "words")


class Lib:
    """Freshly imported shiftk modules, reached by attribute at call time."""

    def __init__(self):
        for key in [k for k in sys.modules if k == "shiftk" or k.startswith("shiftk.")]:
            del sys.modules[key]
        importlib.import_module("shiftk")
        for name in PACKAGE_MODULES:
            setattr(self, name, importlib.import_module(f"shiftk.{name}"))


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    v = sorted(values)
    if len(v) == 1:
        return v[0]
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def op_medians(ops, passes: set, clock: str = "cpu") -> list[float]:
    """Each operation of a pass, its median time over the given passes.

    Operations are matched across passes by kind, case and occurrence, so a
    burst of load from outside slows one sample of an operation, not the
    figures; and every pass holds the same operations, so the number of
    values does not depend on how many passes fitted in the run.
    """
    samples: dict[tuple, list[float]] = {}
    seen: dict[tuple, int] = {}
    for op in ops:
        if op.pass_index in passes:
            key = (op.pass_index, op.kind, op.case)
            seen[key] = seen.get(key, 0) + 1
            samples.setdefault((op.kind, op.case, seen[key]), []).append(getattr(op, clock))
    return [statistics.median(v) for v in samples.values()]


def setup(name: str, seed: int, work: Path, clock):
    """Import the package and build the inputs SETUP_REPEATS times; keep the last.

    Returns the CPU time of each set-up.
    """
    times = []
    workload = lib = None
    for i in range(SETUP_REPEATS):
        target = work / f"setup-{i}"
        c0 = clock()
        lib = Lib()
        workload = WORKLOADS[name](lib, seed, target)
        times.append(clock() - c0)
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(target, ignore_errors=True)
    return lib, workload, times


def run_passes(lib, workload, session: Session, seconds: float, tracer: Tracer | None):
    """Closed loop of passes for about ``seconds``; traced passes alternate when tracing."""
    passes = []                # (traced, wall, per-layer metrics or None, cpu)
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        session.pass_index = len(passes)
        first_op = len(session.ops)
        if traced:
            tracer.install(lib)
            first_span = tracer.mark()
            session.tracer = tracer
        t0, c0 = time.perf_counter(), session.clock()
        try:
            workload.run_pass(session)
        finally:
            wall, cpu = time.perf_counter() - t0, session.clock() - c0
            if traced:
                session.tracer = None
                tracer.uninstall()
        layer = None
        if traced:
            layer = tracer.pass_metrics(first_span)
            layer.update(cache_counts(tracer, session, first_op, first_span))
        passes.append((traced, wall, layer, cpu))
        used = time.perf_counter() - start
        enough = len(passes) >= (2 if tracer is not None else 1)
        if enough and used + statistics.median(p[1] for p in passes) > seconds:
            return passes


def cache_counts(tracer: Tracer, session: Session, first_op: int, first_span: int) -> dict:
    """A cache hit is an ``invariants`` call during which build_chain never ran."""
    computed = {span[2] for span in tracer.spans[first_span:] if span[4] == "build_chain"}
    hits = misses = 0
    for op in session.ops[first_op:]:
        if op.kind not in ("cold", "hit") or not op.ok:
            continue
        if op.op_id in computed:
            misses += 1
        else:
            hits += 1
        session.expect((op.op_id in computed) == (op.kind == "cold"),
                       f"{op.case}: a {op.kind} call {'did' if op.op_id in computed else 'did not'}"
                       " run build_chain")
    return {"cli.cache_hits": float(hits), "cli.cache_misses": float(misses)}


def host() -> dict:
    return {"python": platform.python_version(), "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0))}


def report(name: str, seed: int, session: Session, metrics: dict, units: dict,
           samples: dict, extra: list[str]) -> None:
    out = sys.stderr
    print(f"perfbench {name} seed={seed} host={json.dumps(host())}", file=out)
    print(f"  {'metric':34s} {'value':>14s}  {'unit':6s} samples", file=out)
    for key, value in metrics.items():
        print(f"  {key:34s} {value:14.6g}  {units[key]:6s} {samples.get(key, '')}", file=out)
    for line in extra:
        print("  " + line, file=out)
    attempted = len(session.ops)
    failed = sum(1 for op in session.ops if not op.ok)
    print(f"  failed_frac {failed}/{attempted} = {failed / attempted:.4f}", file=out)
    for line in session.failures:
        print(f"  FAILED {line}", file=out)
    for line in session.wrong:
        print(f"  WRONG {line}", file=out)


def detail_lines(name: str, workload, session: Session, untraced: set,
                 scale: float) -> list[str]:
    """The workload's own latency figures (scaled CPU time) and wall times, for reading.

    They are not gated.
    """
    ops = [op for op in session.ops if op.pass_index in untraced]
    wall = op_medians(ops, untraced, "seconds")
    lines = [f"wall time, unscaled: pass {sum(wall):.6g} s, "
             f"op p50 {quantile(wall, 0.5) * 1e3:.6g} ms, "
             f"op p90 {quantile(wall, 0.9) * 1e3:.6g} ms (n={len(ops)} ops)"]

    def figure(label, kind, q, unit_scale, unit):
        values = [op.cpu for op in ops if op.kind == kind]
        if values:
            lines.append(f"{label} = {quantile(values, q) * unit_scale * scale:.6g} {unit}"
                         f" (n={len(values)})")

    if name == "cli-session":
        figure("cold_p50_ms", "cold", 0.5, 1e3, "ms")
        figure("hit_p50_ms", "hit", 0.5, 1e3, "ms")
        figure("hit_p90_ms", "hit", 0.9, 1e3, "ms")
    elif name.startswith("bowen-franks"):
        figure("case_p50_s", "case", 0.5, 1, "s")
    elif name == "operator-model":
        seconds = sum(op.cpu for op in ops) * scale
        checks = workload.checks_per_pass() * len(untraced)
        lines.append(f"checks_per_s = {checks / seconds:.6g} 1/s (n={len(untraced)} passes)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "shiftk" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'shiftk'} not found; run from a shiftk checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for key in [k for k in os.environ if k.startswith("SHIFTK_")]:
        del os.environ[key]    # no inherited cache dir, caps or lmax

    work = HERE / "_work" / f"run-{os.getpid()}"
    calibrator = Calibrator()
    calibrator.start()
    try:
        lib, workload, setup_times = setup(args.workload, args.seed, work, calibrator.clock)
        setup_samples = len(calibrator.samples)
        workload.prepare()
        session = Session(clock=calibrator.clock)
        tracer = Tracer(clock=calibrator.clock) if args.trace else None
        passes = run_passes(lib, workload, session, args.seconds, tracer)
    finally:
        calibrator.stop()
        shutil.rmtree(work, ignore_errors=True)
    scale = calibrator.scale()
    # set-up lasts about a second, when the host may run at another speed than
    # over the whole run, so it is scaled by the samples taken during it
    setup_scale = calibrator.scale(0, setup_samples)

    untraced = {i for i, p in enumerate(passes) if not p[0]}
    cpus = [p[3] for p in passes if not p[0]]
    per_op = op_medians(session.ops, untraced)
    if args.trace:
        traced = [p for p in passes if p[0]]
        metrics = {key: statistics.median(p[2].get(key, 0.0) for p in traced)
                   for key in PER_LAYER}
        metrics["trace.overhead_s"] = (statistics.median(p[3] for p in traced)
                                       - statistics.median(cpus))
        metrics = {key: value * scale if PER_LAYER[key] == "s" else value
                   for key, value in metrics.items()}
        units = PER_LAYER
        samples = {key: f"{len(traced)} traced passes" for key in PER_LAYER}
        samples["trace.overhead_s"] = f"{len(traced)} traced, {len(cpus)} untraced passes"
        extra = self_time_lines(tracer, session, untraced, scale)
        out_dir = HERE / "_work" / "traces"
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_path = out_dir / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                  "host": host(), "metrics": metrics,
                                  "passes": [p[2] for p in traced]})
        extra.append(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times) * setup_scale,
            "pass_s": sum(per_op) * scale,
            "op_p50_ms": quantile(per_op, 0.5) * 1e3 * scale,
            "op_p90_ms": quantile(per_op, 0.9) * 1e3 * scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        samples = {"setup_s": f"{len(setup_times)} setups", "pass_s": f"{len(cpus)} passes",
                   "op_p50_ms": f"{len(per_op)} ops x {len(cpus)} passes",
                   "op_p90_ms": f"{len(per_op)} ops x {len(cpus)} passes",
                   "peak_rss_mb": "1 run"}
        extra = detail_lines(args.workload, workload, session, untraced, scale)
    extra.append(f"host speed: reference slice {statistics.fmean(calibrator.samples) * 1e3:.4f} ms"
                 f" CPU on average over {len(calibrator.samples)} samples; times are"
                 f" scaled by {scale:.4f} to reference speed")

    report(args.workload, args.seed, session, metrics, units, samples, extra)
    result = {
        "correct": not session.wrong,
        "attempted": len(session.ops),
        "failed": sum(1 for op in session.ops if not op.ok),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def self_time_lines(tracer: Tracer, session: Session, untraced: set,
                    scale: float) -> list[str]:
    """Self time per layer over all traced operations, and over cold calls alone."""
    lines = []
    traced_ops = [op for op in session.ops if op.pass_index not in untraced]
    groups = [("all traced operations", traced_ops),
              ("cold invariants calls", [op for op in traced_ops if op.kind == "cold"])]
    for label, ops in groups:
        if not ops:
            continue
        ids = {op.op_id for op in ops}
        by_layer = self_times([span for span in tracer.spans if span[2] in ids])
        ranked = sorted(by_layer.items(), key=lambda kv: -kv[1])
        lines.append(f"self time by layer, {label} (n={len(ops)}): " + ", ".join(
            f"{layer} {seconds * scale:.4f} s" for layer, seconds in ranked))
    return lines


if __name__ == "__main__":
    sys.exit(main())

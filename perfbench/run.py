"""Benchmark of the maw package: one workload per process.

    python3 perfbench/run.py --workload train-d2 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  With `--trace 0` the run measures the end-to-end metrics with no
instrumentation.  With `--trace 1` it runs a fixed unit of the workload four
times, untraced and with timing wrappers around every public callable of each
layer module in turn, and reports per-layer figures and the tracing overhead.  Both
print an environment line and finish with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import os

# Fix the BLAS thread count before numpy loads.  One thread keeps timings
# steady; the package works on matrices far too small to gain from more.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "maw"
# Set-up repeats at least SETUPS times and until MIN_SETUP_S have passed, so
# that a cheap set-up still has a steady median.
SETUPS, MIN_SETUP_S, MAX_SETUPS = 3, 2.0, 100

# metric -> span keys whose inclusive time it sums
INCLUSIVE = {
    "autodiff.backward_s": ("autodiff.Tape.backward",),
    "nets.optimizer_s": ("nets.Optimizer.step",),
    "nets.mlp_apply_s": ("nets.mlp_apply",),
    "model.checkpoint_s": ("model.MawModel.to_payload", "model.MawModel.from_payload"),
}
COUNTED = ("autodiff", "linalg")  # layers whose call counts must repeat exactly
SECTION_PARENT = "theory.verification_report"
SECTION_METRIC = "theory.section_s."  # + a section key of the theory report


def declared_metrics(kind: str) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares under `kind`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def import_package():
    """Import the package afresh from src/, dropping any loaded copy."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    if Path(pkg.__file__).resolve().parent != SRC / PACKAGE:
        raise RuntimeError(f"imported {PACKAGE} from {pkg.__file__}, not from {SRC}")
    return pkg


def git_sha(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha(ROOT),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def per_op(out, kind):
    """(median latency on the reference host, rows) of one op of class
    `kind`; every op of a class processes the same number of rows."""
    return statistics.median(out.scaled(kind)), out.ops[kind][0].rows


def end_to_end(workload, out, setup_s):
    latency = [per_op(out, kind)[0] for kind in workload.latency_kinds]
    rate = [per_op(out, kind) for kind in workload.rate_kinds]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "rows_per_s": sum(rows for _, rows in rate) / sum(lat for lat, _ in rate),
        "latency_ms": 1e3 * statistics.fmean(latency),
        "quality": out.quality,
        "peak_rss_mb": peak_rss_mb(),
    }
    # Wall times on this host: the latency distribution over every timed op,
    # by the percentile rule, and the reference loop's median.
    timed = [op.latency_s for kind, ops in out.ops.items() if kind != "quality" for op in ops]
    p, tail_s = stats.tail(timed)
    info = {
        "ops": {kind: len(ops) for kind, ops in out.ops.items()},
        "quality_op_s": [op.latency_s for op in out.ops["quality"]],
        "latency_ms_p50": 1e3 * statistics.median(timed),
        "latency_ms_tail": {"percentile": p, "value": 1e3 * tail_s},
        "reference_ms_p50": 1e3 * statistics.median(out.reference_s),
    }
    return metrics, info


def traced(workload, out):
    """The fixed unit four times, untraced and traced in turn; per-layer
    figures are the mean of the traced pair, whose call counts must agree
    exactly, and every pass must give the same outputs."""
    declared = declared_metrics("per_layer")
    sections = [name for name in declared if name.startswith(SECTION_METRIC)]
    inputs = workload.unit_inputs()
    spans = tracer.LayerTracer(PACKAGE)
    spans.recorder.watch(SECTION_PARENT)
    untraced, passes, outputs = [], [], []
    for with_spans in (False, True, False, True):
        if with_spans:
            spans.reset()
            spans.install()
        try:
            t0 = time.perf_counter()
            outputs.append(workload.unit(inputs, out))
            wall = time.perf_counter() - t0
        finally:
            spans.uninstall()
        if with_spans:
            passes.append((wall, layer_figures(spans, sections)))
        else:
            untraced.append(wall)
    if any(result != outputs[0] for result in outputs[1:]):
        out.fail(["the unit gave different outputs on different passes"])
        out.checked = False

    (wall_a, first), (wall_b, second) = passes
    for layer in COUNTED:
        if first[f"{layer}.calls"] != second[f"{layer}.calls"]:
            out.fail([f"{layer}.calls differ between traced runs: "
                      f"{first[f'{layer}.calls']} vs {second[f'{layer}.calls']}"])
            out.checked = False
    absent = sorted(name for name, v in first.items() if v is None)
    metrics = {}
    for name in declared:
        if name == "trace.overhead_s":
            metrics[name] = (wall_a + wall_b - sum(untraced)) / 2.0
        elif name.endswith(".calls"):
            metrics[name] = first[name]
        elif first[name] is None:
            metrics[name] = 0.0
        else:
            metrics[name] = (first[name] + second[name]) / 2.0
    info = {"untraced_s": untraced, "traced_s": [wall_a, wall_b], "absent": absent}
    return metrics, info


def layer_figures(spans, section_metrics) -> dict:
    """Per-layer figures of one traced pass; None marks a probe whose
    function, or theory report section, no longer exists in the package."""
    rec = spans.recorder
    figures = {}
    for layer in ("autodiff", "nets", "linalg", "model", "evaluation", "theory", "cli"):
        figures[f"{layer}.self_s"] = rec.self_s.get(layer, 0.0)
    for layer in COUNTED:
        figures[f"{layer}.calls"] = rec.layer_calls.get(layer, 0)
    for name, keys in INCLUSIVE.items():
        figures[name] = spans.inclusive(*keys)
    step_known = "nets.Optimizer.step" in spans.wrapped
    for phase in ("recon", "critic", "gen"):
        figures[f"model.phase_s.{phase}"] = spans.phase_s.get(phase, 0.0) if step_known else None
    # The report's sections are built by the direct calls under
    # verification_report, in the order of the report's keys.
    sections = rec.children.get(SECTION_PARENT, [])
    report = spans.returned.get(SECTION_PARENT)
    keys = list(report["sections"]) if isinstance(report, dict) and "sections" in report else []
    durations = dict(zip(keys, (d for _, d in sections))) if len(sections) == len(keys) else {}
    for name in section_metrics:
        # 0 when the workload runs no verification
        figures[name] = durations.get(name[len(SECTION_METRIC):]) if keys else 0.0
    return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"no {PACKAGE} package under {SRC}: run from the root of a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.seed, ROOT)
    setups = workloads.Outcome()
    setups.tick()
    wall = []
    while len(wall) < SETUPS or (sum(wall) < MIN_SETUP_S and len(wall) < MAX_SETUPS):
        t0 = time.perf_counter()
        workload.setup(import_package())
        wall.append(time.perf_counter() - t0)
        setups.record("setup", wall[-1], 0, [])
        setups.tick()
    setup_s = setups.scaled("setup")

    out = workloads.Outcome()
    if args.trace:
        metrics, info = traced(workload, out)
        units = declared_metrics("per_layer")
    else:
        workload.run(args.seconds, out)
        kinds = workload.latency_kinds + workload.rate_kinds
        if not all(out.ops[kind] for kind in kinds) or out.quality is None:
            print(json.dumps({"problems": out.problems[:20]}), file=sys.stderr)
            print("no operation completed; nothing to report", file=sys.stderr)
            return 1
        metrics, info = end_to_end(workload, out, setup_s)
        units = declared_metrics("end_to_end")
    info.update(workload=args.workload, seed=args.seed, setup_wall_s=statistics.median(wall),
                setups=len(wall),
                problems=out.problems[:20])
    print(json.dumps({"env": environment()}))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

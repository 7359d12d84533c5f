"""Benchmark of the outer1planar package.

    python3 bench/run.py --workload peel-large --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The package is imported from `src/` of
that checkout.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; `--trace 0` gives the end-to-end
metrics, `--trace 1` the per-layer ones.  A fuller result file, with input
and output digests and every figure of the workload, is written to
`bench/out/`.  See README.md.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import hostspeed  # noqa: E402

SAMPLER = hostspeed.Sampler()
SAMPLER.start()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
# set-up is timed in this process and in set-up-only child processes: at
# least SETUP_SAMPLES times, and up to SETUP_MAX_SAMPLES until they add up to
# SETUP_MIN_S of wall time
SETUP_SAMPLES, SETUP_MAX_SAMPLES, SETUP_MIN_S = 2, 5, 4.0
MODULES = ("init", "catalog", "cli", "coloring", "drawing", "generators", "oracle", "structure")
REDUCTION_KINDS = tuple(f"P{i}" for i in range(1, 11))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import outer1planar from this checkout's src/, or exit with an error."""
    if not (SRC / "outer1planar" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    os.environ["O1P_WORKERS"] = "1"
    os.environ.pop("O1P_REPORT", None)
    import outer1planar

    if Path(outer1planar.__file__).resolve().parent != SRC / "outer1planar":
        sys.exit(f"bench: imported outer1planar from {outer1planar.__file__}, not {SRC}")


def run_op(op) -> tuple[workloads.OpResult, hostspeed.Stretch]:
    mark = SAMPLER.mark()
    try:
        output = op.run()
    except Exception as exc:  # the benchmark keeps going and counts the failure
        took = SAMPLER.since(mark)
        return workloads.OpResult(op, took.wall_s, raised=f"{type(exc).__name__}: {exc}"), took
    took = SAMPLER.since(mark)
    errors, canonical = op.check(output)
    return workloads.OpResult(op, took.wall_s, errors=errors, canonical=canonical), took


class Pass(list):
    """The results of one pass, and the host speed samples taken during its operations."""

    kernel_s: list[float]

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self)

    @property
    def ref_s(self) -> float:
        return hostspeed.Stretch(self.wall_s, self.kernel_s).ref_s


def run_pass(workload) -> Pass:
    done = Pass()
    done.kernel_s = []
    for op in workload.ops:
        result, took = run_op(op)
        done.append(result)
        done.kernel_s += took.kernel_s
    return done


def setup_child(args) -> dict:
    """Set-up stretch of a fresh process, measured by that process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only"]
    cmd += ["--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def src_lines() -> dict[str, int]:
    out = {}
    for module in MODULES:
        path = SRC / "outer1planar" / f"{'__init__' if module == 'init' else module}.py"
        lines = path.read_text(encoding="utf-8").splitlines() if path.is_file() else []
        out[f"{module}.src_lines"] = sum(1 for line in lines if line.strip())
    return out


def digests(results) -> dict[str, str]:
    by_kind: dict[str, list[str]] = {}
    for r in results:
        by_kind.setdefault(r.op.kind, []).append(f"{r.op.label}\n{r.raised or r.canonical}")
    return {kind: workloads.sha256("\n".join(texts)) for kind, texts in sorted(by_kind.items())}


def layer_metrics(tracer) -> tuple[dict[str, float], dict[str, float]]:
    """(per-layer metrics, every self time) of one traced pass."""
    self_s, calls = tracer.layers()
    c = tracer.counts
    metrics = {
        "cli.run.calls": calls["cli.run"],
        "cli.run.self_s": self_s.get("cli.run", 0.0),
        "drawing.validate.calls": calls["drawing.validate"],
        "drawing.validate.edges": c["drawing.validate.edges"],
        "drawing.delete.calls": calls["drawing.delete"],
        "drawing.parse.calls": calls["drawing.parse"],
        "drawing.crossing_pairs.calls": calls["drawing.crossing_pairs"],
        "catalog.find_matches.calls": calls["catalog.find_matches"],
        "catalog.find_matches.nonempty": c["catalog.find_matches.nonempty"],
        "catalog.find_matches.returned": c["catalog.find_matches.returned"],
        "catalog.automorphisms.calls": calls["catalog.automorphisms"],
        "structure.find_reduction.calls": calls["structure.find_reduction"],
        **{f"structure.reduction.{k}": c[f"structure.reduction.{k}"] for k in REDUCTION_KINDS},
        "structure.find_structure.calls": calls["structure.find_structure"],
        "structure.find_light_edge.calls": calls["structure.find_light_edge"],
        "coloring.color.calls": calls["coloring.color"],
        "coloring.peel_depth.max": tracer.max_peel_depth(),
        "coloring.extend_step.calls": calls["coloring.extend_step"],
        "coloring.verify.calls": calls["coloring.verify"],
        "coloring.repair.count": tracer.repairs,
        "oracle.enumerate.drawings": c["oracle.enumerate.drawings"],
        "oracle.canonical_key.calls": calls["oracle.canonical_key"],
        "oracle.chi.calls": calls["oracle.chi"],
        "generators.random.calls": calls["generators.random"],
        "trace.spans": len(tracer.span_name),
        **src_lines(),
    }
    return metrics, {f"{name}.self_s": round(s, 6) for name, s in sorted(self_s.items())}


def timed_passes(workload, seconds: float) -> tuple[list, float]:
    """Passes back to back until `seconds` have passed, and at least one,
    with the peak RSS in MB after the first pass.

    Later passes can raise the peak a little (by 20 MB on `exhaustive`),
    and how many there are depends on the host's speed.
    """
    started = time.perf_counter()
    passes = [run_pass(workload)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while time.perf_counter() - started < seconds:
        passes.append(run_pass(workload))
    return passes, peak_rss_mb


def traced_passes(workload, tracer) -> list:
    """One untraced pass, then one traced pass."""
    passes = [run_pass(workload)]
    tracer.install()
    try:
        passes.append(run_pass(workload))
    finally:
        tracer.uninstall()
    return passes


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}, not one of {sorted(workloads.WORKLOADS)}")
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        took = SAMPLER.since((PROCESS_START, 0, 0.0))
        setup = {"wall_s": took.wall_s, "ref_s": took.ref_s, "kernel_samples": len(took.kernel_s)}
        SAMPLER.stop()
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        if args.trace:
            tracer = Tracer()
            passes = traced_passes(workload, tracer)
        else:
            setups = [setup]
            while len(setups) < SETUP_SAMPLES or (
                len(setups) < SETUP_MAX_SAMPLES and sum(s["wall_s"] for s in setups) < SETUP_MIN_S
            ):
                setups.append(setup_child(args))
            SAMPLER.start()
            try:
                passes, peak_rss_mb = timed_passes(workload, args.seconds)
            finally:
                SAMPLER.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = [r for p in passes for r in p]
    attempted = len(results)
    failed = sum(r.failed for r in results)
    first = digests(passes[0])
    deterministic = all(digests(later) == first for later in passes[1:])
    pass_walls = [p.wall_s for p in passes]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "deterministic": deterministic,
        "failures": [
            f"{r.op.kind} {r.op.label}: {r.raised or r.errors[:3]}" for r in results if r.failed
        ],
        "inputs_sha256": workload.inputs,
        "outputs_sha256": first,
        "op_wall_s": {},
    }
    for r in results:
        report["op_wall_s"].setdefault(r.op.label, []).append(r.wall_s)
    if args.trace:
        metrics, self_times = layer_metrics(tracer)
        report.update(
            untraced_pass_s=pass_walls[0],
            traced_pass_s=pass_walls[1],
            trace_overhead_s=pass_walls[1] - pass_walls[0],
            self_s=self_times,
            absent=tracer.absent,
        )
        units = {k: "s" if k.endswith("_s") else "count" for k in metrics}
    else:
        figures = {}
        for p in passes:
            for name, (value, unit) in workload.figures(p).items():
                figures.setdefault(name, (unit, []))[1].append(value)
        report["figures"] = {
            name: {"value": statistics.median(values), "unit": unit}
            for name, (unit, values) in figures.items()
        }
        report["figures"]["fail_ratio"] = {"value": failed / attempted, "unit": "ratio"}
        metrics = {
            "setup_s": statistics.median(s["ref_s"] for s in setups),
            "peak_rss_mb": peak_rss_mb,
            "pass_ref_s": statistics.median(p.ref_s for p in passes),
        }
        units = {"setup_s": "s", "peak_rss_mb": "MB", "pass_ref_s": "s"}
        report.update(
            setup_samples=setups,
            pass_wall_s=pass_walls,
            pass_ref_s=[p.ref_s for p in passes],
            pass_kernel_s=[p.kernel_s for p in passes],
        )
        for name, fig in report["figures"].items():
            print(f"figure {name} {fig['value']:.6g} {fig['unit']}")
    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for line in report["failures"]:
        print(f"bench: failed op: {line}", file=sys.stderr)
    print(f"bench: result file {out_file.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({
        "correct": deterministic and not any(r.errors for r in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        SAMPLER.stop()

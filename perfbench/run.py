"""Headline benchmark: one workload, both clocks, per-layer attribution.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lookup_uniform --seed 1 \\
        --seconds 20 --trace 0

Each run repeats the workload — build every cell from the seed, run its
op stream through ``repro.workloads.run_workload``, check the results —
until ``--seconds`` have passed, and reports the median of the
real-clock metrics over repetitions.  The charged (simulated-device)
metrics must repeat exactly in every repetition and equal the library's
``RunResult`` per cell; any difference, wrong result or failed op makes
the run fail.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions: the traced ones wrap each layer's
public methods (see ``spans.py``), write the spans to
``perfbench/out/``, and print the per-layer metrics and self-time table
with the tracing overhead (traced wall / untraced wall).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_library():
    """Put this checkout's ``src`` first on the path and import it.

    The benchmark measures the checkout it sits in and nothing else, so
    a ``repro`` importable from anywhere but ``ROOT/src`` is an error.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no library source at {src}; run the "
                         "benchmark from a full checkout")
    sys.path.insert(0, str(src))
    import repro
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, "
                         f"not from {src}")


def _git(*args):
    """Run git on this checkout only; None when it is not a repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload, seed: int, seconds: float) -> dict:
    import numpy
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
        "seconds": seconds,
        "workload": workload.name,
        "why": workload.why,
        "sizes": workload.sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import numpy as np

    import metrics as m
    from measure import run_cell
    from spans import SpanRecorder
    from suite import WORKLOADS_BY_NAME

    workload = WORKLOADS_BY_NAME.get(args.workload)
    if workload is None:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS_BY_NAME)}")
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"

    untraced, traced = [], []   # repetitions: each a list of CellRun
    layer_reps, table = [], None
    signatures = None
    attempted = failed = 0
    problems = []
    deadline = perf_counter() + args.seconds
    while True:
        rep_start = perf_counter()
        recorder = None
        if args.trace and len(traced) < len(untraced):
            recorder = SpanRecorder()
            recorder.instrument(workload.cells)
        try:
            first = not untraced and not traced
            cells = [run_cell(workload, name, args.seed, recorder,
                              post_run_check=first)
                     for name in workload.cells]
        finally:
            if recorder is not None:
                recorder.restore()
        for cell in cells:
            attempted += cell.attempted
            failed += cell.failed
            problems += [f"{cell.name}: {e}" for e in cell.errors[:3]]
            problems += cell.mismatches
        if any(c.result is None for c in cells):
            break
        sigs = [c.charged_signature() for c in cells]
        if signatures is None:
            signatures = sigs
        elif sigs != signatures:
            problems.append("charged metrics differ between repetitions"
                            + (" (traced vs untraced)" if recorder else ""))
        (traced if recorder else untraced).append(cells)
        if recorder is not None:
            layer_reps.append(m.per_layer(cells, recorder))
            if table is None:
                table = m.self_time_table(cells, recorder)
                recorder.save(out_dir / f"{stem}-spans.npz")
        del cells, recorder
        # Stop when the next repetition would overrun --seconds (each
        # mode needs at least one; the real clock wants two untraced).
        enough = len(untraced) >= 2 and (traced or not args.trace)
        if enough and perf_counter() + (perf_counter() - rep_start) > deadline:
            break

    correct = failed == 0 and not problems
    report = {"provenance": provenance(workload, args.seed, args.seconds),
              "repetitions": {"untraced": len(untraced),
                              "traced": len(traced)},
              "samples_per_repetition": attempted // max(
                  1, len(untraced) + len(traced))}
    if untraced:
        e2e = {**m.real_clock(untraced), **m.charged(untraced[0]),
               "peak_rss_mb": m.peak_rss_mb(),
               "error_rate": failed / attempted}
        report["end_to_end"] = e2e
        print_end_to_end(e2e, report, m.END_TO_END)
    if layer_reps:
        layers = {n: float(np.median([r[n] for r in layer_reps]))
                  for n in m.PER_LAYER if n != "trace.overhead"}
        layers["trace.overhead"] = m.median_wall(traced) / m.median_wall(
            untraced)
        report["per_layer"] = layers
        report["self_time"] = table
        print_per_layer(layers, table, m.PER_LAYER)
    for problem in problems[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    (out_dir / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str))

    if args.trace:
        chosen = {n: (report.get("per_layer", {}).get(n, 0.0), unit)
                  for n, unit in m.PER_LAYER.items()}
    else:
        chosen = {n: (report.get("end_to_end", {}).get(n, 0.0), unit)
                  for n, (unit, _) in m.END_TO_END.items()
                  if n in m.HEADLINE}
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in chosen.items()},
    }))
    return 0 if correct else 1


def print_end_to_end(e2e: dict, report: dict, spec: dict) -> None:
    prov = report["provenance"]
    reps = report["repetitions"]
    print(f"== {prov['workload']}  seed {prov['seed']}  "
          f"({reps['untraced']} untraced / {reps['traced']} traced "
          f"repetitions, {report['samples_per_repetition']} ops each)")
    print(f"   why: {prov['why']}")
    print("   provenance: " + json.dumps(
        {k: v for k, v in prov.items() if k not in ("why", "sizes")}))
    print("   sizes: " + json.dumps(prov["sizes"]))
    print(f"   flush policy: {prov['sizes']['flush_policy']}")
    for name, (unit, better) in spec.items():
        print(f"   {name:<22} {e2e[name]:>16.6g} {unit:<6} "
              f"({better} is better)")
    print(f"   p50_us / p99_us over {report['samples_per_repetition']} "
          f"samples: each op's fastest of {reps['untraced']} repetitions")


def print_per_layer(layers: dict, table, spec: dict) -> None:
    print("-- per-layer self time (first traced repetition, run phase)")
    print(f"   {'layer':<22} {'self ms':>10} {'share':>8} {'us/op':>10}")
    for layer, ms, share, per_op in table:
        print(f"   {layer:<22} {ms:>10.2f} {share:>8.2%} {per_op:>10.3f}")
    print(f"   tracing overhead: traced wall / untraced wall = "
          f"{layers['trace.overhead']:.3f}; unattributed share "
          f"{layers['trace.unattributed_share']:.4%}")
    print("-- per-layer metrics (median over traced repetitions)")
    for name, unit in spec.items():
        print(f"   {name:<44} {layers[name]:>14.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())

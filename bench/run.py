"""Run the SpTRSV pipeline benchmark.

    python3 bench/run.py [--workload W] [--seed S] [--seconds T]
                         [--runs N] [--trace [0|1]] [--out DIR]

With ``--workload`` one workload runs in this process.  It prints one
line per metric, ``<metric> <workload> <value> <unit> [n=<samples>]``,
and as its last line a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json``, or with ``--trace 1`` its per-layer metrics.

Without ``--workload`` every workload runs ``--runs`` times, each in a
fresh interpreter, with seeds ``S, S+1, ...``; the workload order
alternates between runs.  With ``--trace`` each run is followed by a
traced run of the same seed, and the difference between their
end-to-end values is printed as the tracing overhead.

``--out DIR`` keeps one JSON record per run (``compare.py`` reads them)
and, for traced runs, the spans (``trace-<workload>-s<seed>.json``).

The exit code is 0 when every checked result was correct, 1 when one
was not and 2 when the checkout has no library to run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    # run as a script: import the ``bench`` package from the checkout
    # root, and keep bench/ itself off sys.path so that bench/trace.py
    # cannot shadow the standard library's ``trace`` module
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from bench import ROOT, SRC, use_checkout_src

BENCHMARK_FILE = ROOT / "BENCHMARK.json"
#: Where workloads may write temporary files: inside the checkout.
WORKDIR = ROOT / ".bench_tmp"


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))


def metric_line(name, workload, value, unit, n=None, tag="") -> str:
    text = f"{name} {workload} {value!r} {unit}"
    if n is not None:
        text += f" n={n}"
    return f"{text} {tag}".rstrip()


def run_one(args, benchmark: dict) -> int:
    from bench.trace import Tracer, layer_times
    from bench.workloads import WORKLOADS, end_to_end, not_gated

    tracer = Tracer(enabled=bool(args.trace))
    WORKDIR.mkdir(exist_ok=True)
    try:
        outcome = WORKLOADS[args.workload](
            args.seed, args.seconds, tracer, WORKDIR
        )
    finally:
        try:
            WORKDIR.rmdir()
        except OSError:  # another run is still using it
            pass
    e2e = end_to_end(outcome)
    missing = [m["name"] for m in benchmark["end_to_end"] if m["name"] not in e2e]
    if missing:
        raise KeyError(f"BENCHMARK.json lists unmeasured metrics {missing}")
    layers = layer_times(tracer.spans)
    layers.update(outcome.layers)
    per_layer = {
        m["name"]: (layers.get(m["name"], 0.0), m["unit"])
        for m in benchmark["per_layer"]
    }

    tag = "traced" if args.trace else ""
    for m in benchmark["end_to_end"]:
        value, unit, n = e2e[m["name"]]
        print(metric_line(m["name"], args.workload, value, unit, n, tag))
    reported = not_gated(outcome)
    for name, (value, unit, n) in reported.items():
        print(metric_line(name, args.workload, value, unit, n,
                          f"{tag} not-gated".strip()))
    if args.trace:
        for name, (value, unit) in per_layer.items():
            print(metric_line(name, args.workload, value, unit))
    if not outcome.valid:
        print(f"invalid {args.workload}: {outcome.note}")

    checks = outcome.checks
    chosen = (
        per_layer if args.trace
        else {m["name"]: e2e[m["name"]][:2] for m in benchmark["end_to_end"]}
    )
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in chosen.items()
        },
    }
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-s{args.seed}"
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "valid": outcome.valid,
            "note": outcome.note,
            "end_to_end": {
                name: {"value": v, "unit": u, "n": n}
                for name, (v, u, n) in e2e.items()
            },
            "not_gated": {
                name: {"value": v, "unit": u, "n": n}
                for name, (v, u, n) in reported.items()
            },
            "per_layer": {
                name: {"value": v, "unit": u}
                for name, (v, u) in per_layer.items()
            },
            "result": result,
        }
        suffix = "-trace" if args.trace else ""
        (out / f"{stem}{suffix}.json").write_text(
            json.dumps(record, indent=1), encoding="utf-8"
        )
        if args.trace:
            tracer.write(out / f"trace-{stem}.json")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_child(args, workload: str, seed: int, trace: int, out: Path):
    """One workload run in a fresh interpreter; returns its record."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--out", str(out),
    ]
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=900, cwd=ROOT)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error {workload} seed={seed}: exit {proc.returncode}",
              flush=True)
        return None
    suffix = "-trace" if trace else ""
    path = out / f"{workload}-s{seed}{suffix}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def run_all(args, benchmark: dict) -> int:
    workloads = [w["name"] for w in benchmark["workloads"]]
    scratch = None
    if args.out:
        out = Path(args.out)
    else:
        WORKDIR.mkdir(exist_ok=True)
        out = scratch = Path(tempfile.mkdtemp(prefix="runs-", dir=WORKDIR))
    status = 0
    try:
        for k in range(args.runs):
            order = workloads if k % 2 == 0 else workloads[::-1]
            for workload in order:
                seed = args.seed + k
                plain = run_child(args, workload, seed, 0, out)
                if plain is None:
                    status = 1
                    continue
                if not args.trace:
                    continue
                traced = run_child(args, workload, seed, 1, out)
                if traced is None:
                    status = 1
                    continue
                for name, entry in plain["end_to_end"].items():
                    base = entry["value"]
                    slow = traced["end_to_end"][name]["value"]
                    change = (slow - base) / base * 100.0
                    print(f"tracing_overhead {name} {workload} untraced="
                          f"{base!r} traced={slow!r} ({change:+.1f}%)")
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
            try:
                WORKDIR.rmdir()
            except OSError:
                pass
    return status


def parse_args(argv, benchmark: dict):
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(
        description="Seeded end-to-end and per-layer SpTRSV benchmark."
    )
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(benchmark["run_seconds"]))
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload when no --workload is given")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", help="directory for per-run JSON records")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        use_checkout_src()
        benchmark = load_benchmark()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv, benchmark)
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload:
        return run_one(args, benchmark)
    return run_all(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())

"""bistlab benchmark: timed campaigns on synthetic circuits of published size.

Run from the root of a bistlab checkout:

    python3 perfbench/run.py --workload podem --seed 1 --seconds 20 --trace 0

Each repetition runs in a fresh single-threaded child process
(``child.py``) that imports ``bistlab`` from ``./src``. A run first
times several set-ups on their own, then repeats whole campaigns until
``--seconds`` are used up (at least ``MIN_ROUNDS`` of them), and
reports medians. ``--trace 0`` prints the end-to-end metrics named in
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced
campaigns and prints the per-layer metrics. The last line of output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

A repetition fails when it raises, when its audit finds a broken cycle
identity, a coverage that disagrees with its fault set or a skipped
signature overlay, or when its coverage, test cycles, simulated counts
or output digest differ from the other repetitions'.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPS = 9  # set-up only children per run; set-up time is their median
MIN_ROUNDS = 3  # untraced campaigns per run, at least
HARD_LIMIT_S = 160  # a run starts no child that could end after this


def _child(args, deadline):
    """Run child.py; its JSON record, or None when it failed."""
    cmd = [sys.executable, os.path.join(HERE, "child.py")] + args
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("perfbench: repetition timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        print("perfbench: unreadable repetition output", file=sys.stderr)
        return None


def _fingerprint(rec):
    return (rec["output_digest"], rec["coverage"], rec["test_cycles"],
            sorted(rec["counts"].items()))


def run_workload(name, seed, seconds, trace, root):
    """Measure one workload; returns summarize's (result, digest)."""
    work = os.path.join(root, ".perfbench_work", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    deadline = time.monotonic() + HARD_LIMIT_S
    try:
        bench, vec = workloads.write_inputs(name, seed, work)
        base = ["--workload", name, "--bench", bench,
                "--src", os.path.join(root, "src")]
        if vec:
            base += ["--vectors", vec]
        setups = [_child(base + ["--setup-only"], deadline)
                  for _ in range(SETUP_REPS)]
        plain, traced = [], []
        t0 = time.monotonic()
        while True:
            plain.append(_child(base, deadline))
            if trace:
                traced.append(_child(base + ["--trace"], deadline))
            now = time.monotonic()
            per_round = (now - t0) / len(plain)
            if None in plain + traced or now + per_round > deadline:
                break
            if len(plain) >= (1 if trace else MIN_ROUNDS) \
                    and now + per_round > t0 + seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    return summarize(setups, plain, traced, trace)


def summarize(setups, plain, traced, trace):
    """Fold child records (None for a failed child) into the run's result.

    Returns (result object with metrics as bare numbers, output digest).
    """
    records = setups + plain + traced
    good = [r for r in records if r is not None and not r["problems"]]
    for r in records:
        if r is not None and r["problems"]:
            print("perfbench: " + "; ".join(r["problems"]), file=sys.stderr)
    campaigns = [r for r in good if "campaign_s" in r]
    ref = _fingerprint(campaigns[0]) if campaigns else None
    agree = [r for r in campaigns if _fingerprint(r) == ref]
    failed = len(records) - len(good) + len(campaigns) - len(agree)
    if len(agree) != len(campaigns):
        print("perfbench: repetitions disagree on their outputs", file=sys.stderr)

    metrics = {}
    ok_plain = [r for r in agree if "layers" not in r]
    ok_traced = [r for r in agree if "layers" in r]
    if ok_plain and not trace:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in good),
            "campaign_s": statistics.median(r["campaign_s"] for r in ok_plain),
            "patterns_per_s": statistics.median(
                r["patterns"] / r["campaign_s"] for r in ok_plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok_plain),
            "coverage": ref[1],
            "test_cycles": ref[2],
        }
    elif ok_plain and ok_traced:
        keys = ok_traced[0]["layers"]
        metrics = {k: statistics.median(r["layers"][k] for r in ok_traced)
                   for k in keys}
        metrics.update(ok_traced[0]["counts"])
        metrics["trace.overhead_s"] = (
            statistics.median(r["campaign_s"] for r in ok_traced)
            - statistics.median(r["campaign_s"] for r in ok_plain))
    result = {"correct": failed == 0 and bool(metrics),
              "attempted": len(records), "failed": failed,
              "metrics": metrics}
    return result, ref[0] if ref else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "bistlab", "__init__.py")) \
            or not os.path.isfile(spec_path):
        print("perfbench: run from the root of a bistlab checkout "
              "(needs src/bistlab and BENCHMARK.json)", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    for name in names:
        result, digest = run_workload(name, args.seed, args.seconds,
                                      args.trace, root)
        got = result["metrics"]
        if got and set(got) != {m["name"] for m in wanted}:
            raise SystemExit(f"perfbench: metrics out of step with "
                             f"BENCHMARK.json: {sorted(set(got) ^ {m['name'] for m in wanted})}")
        result["metrics"] = {m["name"]: {"value": got[m["name"]],
                                         "unit": m["unit"]}
                             for m in wanted if m["name"] in got}
        for key, m in result["metrics"].items():
            print(f"{name}: {key} = {m['value']} {m['unit']}")
        print(f"{name}: failed_runs = "
              f"{result['failed'] / result['attempted']} fraction "
              f"({result['failed']} of {result['attempted']})")
        print(f"{name}: output_digest = {digest}")
        print(f"{name}: verdict = "
              f"{'correct' if result['correct'] else 'INCORRECT'}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

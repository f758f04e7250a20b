#!/usr/bin/env python3
"""SHA-256 digests of bistlab's reports, event logs and exports.

Runs a fixed set of ``bistlab`` command lines in-process and hashes
every file each one writes, plus its stdout. tests/test_golden.py
compares a fresh run with the committed digests, so a change that
moves any output byte fails tier-1.

The legs cover c17, s27 and two synthetic circuits in tests/data, made
with ``perfbench/synth.generate``:

* synth_fold.bench = generate(6, 8, 14, 150, 6): 22 observed nets
  against a 14-bit scan word, so the signature register folds;
* synth_scan.bench = generate(10, 12, 4, 150, 1).

Between them the legs run both detection modes, seeds 1 to 3, unload
intervals 1, 2, 4 and 32, on-demand PODEM at budgets 10 and 10**6,
``atpg --export`` at budgets 10 and 100, collapsed and (on synth_fold,
so PODEM meets every branch-pin fault) uncollapsed, and two
signature-mode ``sweep`` grids; ``verify-table1`` pins the reference
dataset check's per-row lines. They are a covering subset, not the
full product, to keep the test near two seconds.

    python tools/golden_digests.py           # compare with the committed file
    python tools/golden_digests.py --write   # regenerate it

A change that alters outputs on purpose regenerates the file with
--write and says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")
GOLDEN = os.path.join(DATA, "golden_digests.json")

# name -> argv; a {name} placeholder becomes an output file of that name
LEGS = {
    "c17-direct-s1-u32": [
        "campaign", "--bench", "c17", "--seed", "1",
        "--unload-interval", "32", "--format", "csv",
        "--out", "{report.csv}", "--events", "{events.csv}"],
    "c17-signature-s2-u1": [
        "campaign", "--bench", "c17", "--seed", "2",
        "--unload-interval", "1", "--detection-mode", "signature",
        "--format", "json", "--out", "{report.json}",
        "--events", "{events.csv}"],
    "s27-direct-s2-u1": [
        "campaign", "--bench", "s27", "--seed", "2",
        "--unload-interval", "1", "--format", "json",
        "--out", "{report.json}", "--events", "{events.csv}"],
    "s27-signature-s1-u32": [
        "campaign", "--bench", "s27", "--seed", "1",
        "--unload-interval", "32", "--detection-mode", "signature",
        "--format", "csv", "--out", "{report.csv}",
        "--events", "{events.csv}"],
    "s27-atpg": [
        "atpg", "--bench", "s27", "--export", "{vectors.txt}"],
    "s27-faults": [
        "faults", "--bench", "s27", "--collapsed",
        "--export", "{faults.txt}"],
    "synth_fold-signature-s1-u1": [
        "campaign", "--bench", "synth_fold.bench", "--seed", "1",
        "--unload-interval", "1", "--detection-mode", "signature",
        "--backtrack-budget", "10", "--format", "csv",
        "--out", "{report.csv}", "--events", "{events.csv}"],
    "synth_fold-faults": [
        "faults", "--bench", "synth_fold.bench", "--collapsed",
        "--export", "{faults.txt}"],
    "synth_scan-direct-s2-u32": [
        "campaign", "--bench", "synth_scan.bench", "--seed", "2",
        "--unload-interval", "32", "--backtrack-budget", "10",
        "--format", "json", "--out", "{report.json}",
        "--events", "{events.csv}"],
    "synth_scan-atpg-b100": [
        "atpg", "--bench", "synth_scan.bench", "--seed", "1",
        "--backtrack-budget", "100", "--export", "{vectors.txt}"],
    "synth_fold-atpg-b10": [
        "atpg", "--bench", "synth_fold.bench", "--seed", "1",
        "--backtrack-budget", "10", "--export", "{vectors.txt}"],
    "synth_fold-atpg-nocollapse-b10": [
        "atpg", "--bench", "synth_fold.bench", "--no-collapse",
        "--seed", "1", "--backtrack-budget", "10",
        "--export", "{vectors.txt}"],
    "s27-sweep-signature-s2-u4": [
        "sweep", "--bench", "s27", "--seed", "2",
        "--th1-grid", "0.5,0.85", "--th2-ratio-grid", "0.25,1.0",
        "--poly-set", "7,1,0;7,3,0", "--poly-set", "7,3,0",
        "--unload-interval", "4", "--detection-mode", "signature",
        "--out", "{grid.csv}"],
    "synth_fold-sweep-signature-s3-u2": [
        "sweep", "--bench", "synth_fold.bench", "--seed", "3",
        "--th1-grid", "0.5,0.85", "--th2-ratio-grid", "0.25",
        "--unload-interval", "2", "--detection-mode", "signature",
        "--target-coverage", "0.95", "--cycle-budget", "5000",
        "--backtrack-budget", "10", "--out", "{grid.csv}"],
    "verify-table1": ["verify-table1"],
}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def compute():
    """{leg/file: sha256} for every leg, stdout included.

    Runs with tests/data as the working directory, so the synthetic
    circuits resolve by bare file name and report headers carry no
    machine path.
    """
    from bistlab.cli import main

    digests = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(DATA)
        try:
            for leg, argv in LEGS.items():
                files = {}
                args = []
                for a in argv:
                    if a.startswith("{"):
                        files[a[1:-1]] = os.path.join(tmp, f"{leg}.{a[1:-1]}")
                        a = files[a[1:-1]]
                    args.append(a)
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(args)
                if code != 0:
                    raise RuntimeError(f"{leg}: exit code {code}")
                # export commands echo their target path; drop the temp dir
                text = out.getvalue().replace(tmp, "")
                digests[f"{leg}/stdout"] = _sha(text.encode())
                for name, path in files.items():
                    with open(path, "rb") as fh:
                        digests[f"{leg}/{name}"] = _sha(fh.read())
        finally:
            os.chdir(cwd)
    return digests


def main(argv):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    digests = compute()
    if "--write" in argv:
        with open(GOLDEN, "w") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(digests)} digests to {GOLDEN}")
        return 0
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    moved = sorted(k for k in golden.keys() | digests.keys()
                   if golden.get(k) != digests.get(k))
    for key in moved:
        print(f"differs: {key}")
    print(f"{len(digests) - len(moved)} of {len(digests)} digests match")
    return 1 if moved else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

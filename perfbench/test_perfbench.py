"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import run  # noqa: E402
import synth  # noqa: E402
import workloads  # noqa: E402
from bistlab import faultsim, netlist, report  # noqa: E402
from bistlab.simcore import PatternBatch  # noqa: E402

CIRCUITS = {"s1238": "podem", "s1423": "replay"}


def _structure(text):
    net = netlist.parse_bench(text)
    return [(g.kind, g.inputs) for g in net.gates], net.primary_outputs


def test_generator_is_deterministic_per_seed():
    w = workloads.WORKLOADS["podem"]
    args = (w.pis, w.ffs, w.pos, w.gates, 1238)
    assert synth.generate(*args, name_seed=3) == synth.generate(*args, name_seed=3)
    other = synth.generate(*args, name_seed=4)
    assert other != synth.generate(*args, name_seed=3)
    # the name seed renames nets and changes nothing else
    assert _structure(other) == _structure(synth.generate(*args, name_seed=3))
    assert synth.vectors(91, 64, 7) == synth.vectors(91, 64, 7)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_shape_follows_the_published_row(name, tmp_path):
    w = workloads.WORKLOADS[name]
    scan = {r["circuit"]: r["scan_length"] for r in report.reference_rows()}
    bench, _ = workloads.write_inputs(name, 1, str(tmp_path))
    prof = netlist.circuit_profile(
        netlist.full_scan_transform(netlist.load_bench(bench)))
    assert (prof.scan_length, prof.pis, prof.gate_count) == \
        (scan[w.row], w.pis, w.gates)


@pytest.mark.parametrize("row", sorted(CIRCUITS))
def test_random_patterns_detect_nine_in_ten_faults(row, tmp_path):
    bench, _ = workloads.write_inputs(CIRCUITS[row], 1, str(tmp_path))
    net = netlist.full_scan_transform(netlist.load_bench(bench))
    fs = faultsim.collapse_faults(faultsim.enumerate_faults(net), net)
    rng = random.Random(0)
    width = len(net.input_nets)
    words = [rng.getrandbits(width) for _ in range(8192)]
    faultsim.fault_simulate(net, PatternBatch.from_scan_words(net, words), fs)
    assert fs.coverage() >= 0.90


def _s27_records(name, tmp_path, trace):
    vec = None
    if workloads.WORKLOADS[name].vectors:
        vec = str(tmp_path / "s27.vec")
        with open(vec, "w") as fh:
            fh.write(synth.vectors(7, 8, 1))
    bench = netlist.resolve_bench_path("s27")
    return child.repetition(name, bench, vec, trace=trace)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_s27_smoke_run_gives_every_metric(name, tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    setup = child.repetition(name, netlist.resolve_bench_path("s27"),
                             setup_only=True)
    plain = _s27_records(name, tmp_path, trace=False)
    traced = _s27_records(name, tmp_path, trace=True)
    assert plain["problems"] == [] and traced["problems"] == []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, digest = run.summarize([setup], [plain], [traced], trace)
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in spec[section]}
        assert digest == plain["output_digest"]


@pytest.mark.parametrize("name", ["replay", "signature"])
def test_traced_run_leaves_outputs_and_program_unchanged(name, tmp_path):
    from bistlab import atpg, scheduler

    before = (scheduler.fault_simulate, atpg.fault_simulate,
              scheduler.CampaignState.apply_pseudorandom)
    plain = _s27_records(name, tmp_path, trace=False)
    traced = _s27_records(name, tmp_path, trace=True)
    assert traced["output_digest"] == plain["output_digest"]
    assert traced["counts"] == plain["counts"]
    assert traced["layers"]["faultsim.fault_simulate.calls"] > 0
    assert (scheduler.fault_simulate, atpg.fault_simulate,
            scheduler.CampaignState.apply_pseudorandom) == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

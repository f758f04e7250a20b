"""Fault universe, collapsing, and parallel propagation vs the scalar oracle."""

import random

import pytest

from bistlab.faultsim import (
    Fault,
    FaultSet,
    _fault_effect,
    _faulty_responses,
    _live_indices,
    _response_diff,
    collapse_faults,
    enumerate_faults,
    export_faults,
    fault_name,
    fault_simulate,
    faulty_response_word,
)
from bistlab.netlist import parse_bench
from bistlab.simcore import PatternBatch, _evaluate

from conftest import random_circuit
from oracles import assign_from_word, detects, eval_nets, response_bits


def _word(net, assign):
    w = 0
    for j, nid in enumerate(net.input_nets):
        w |= assign[nid] << j
    return w


def _response_word(net, bits_by_name):
    w = 0
    for j, b in enumerate(bits_by_name):
        w |= b << j
    return w


# ---------------------------------------------------------------- universe

def test_s27_universe_counts(s27):
    fs = enumerate_faults(s27)
    assert len(fs) == 56
    assert len(collapse_faults(fs, s27)) == 30


def test_c17_universe_counts(c17):
    fs = enumerate_faults(c17)
    assert len(fs) == 36
    assert len(collapse_faults(fs, c17)) == 20


def test_universe_size_formula():
    rng = random.Random(411)
    for _ in range(20):
        net = random_circuit(rng)
        fs = enumerate_faults(net)
        pins = sum(len(g.inputs) for g in net.gates)
        assert len(fs) == 2 * (len(net.gates) + pins)


def test_universe_order_is_deterministic(c17):
    a = enumerate_faults(c17)
    b = enumerate_faults(c17)
    assert a.all == b.all


# --------------------------------------------------------------- collapse

AND_GATE = """\
INPUT(a)
INPUT(b)
OUTPUT(z)
z = AND(a, b)
"""

INV_CHAIN = """\
INPUT(a)
OUTPUT(c)
b = NOT(a)
c = NOT(b)
"""


def test_collapse_two_input_and():
    net = parse_bench(AND_GATE, "and2")
    fs = collapse_faults(enumerate_faults(net), net)
    # a-sa0, b-sa0 and z-sa0 are one class; the three sa1 faults stay apart.
    assert len(fs) == 4
    sa0 = [f for f in fs.all if f.stuck == 0]
    assert len(sa0) == 1


def test_collapse_inverter_chain():
    net = parse_bench(INV_CHAIN, "inv2")
    raw = enumerate_faults(net)
    assert len(raw) == 8
    assert len(collapse_faults(raw, net)) == 2


def test_collapse_idempotent(s27):
    fs1 = collapse_faults(enumerate_faults(s27), s27)
    fs2 = collapse_faults(fs1, s27)
    assert fs2.all == fs1.all


def test_collapse_carries_earliest_detection():
    net = parse_bench(AND_GATE, "and2")
    raw = enumerate_faults(net)
    sa0 = [i for i, f in enumerate(raw.all) if f.stuck == 0]
    assert len(sa0) == 3
    raw.mark_detected(sa0[0], 9)
    raw.mark_detected(sa0[1], 4)
    fs = collapse_faults(raw, net)
    i = next(i for i, f in enumerate(fs.all) if f.stuck == 0)
    assert fs.detected[i] == 1
    assert fs.detector[i] == 4


def test_collapse_untestable_requires_all_members():
    net = parse_bench(AND_GATE, "and2")
    raw = enumerate_faults(net)
    sa0 = [i for i, f in enumerate(raw.all) if f.stuck == 0]
    raw.mark_untestable(sa0[0])
    fs = collapse_faults(raw, net)
    assert fs.untestable_count() == 0
    for i in sa0:
        raw.mark_untestable(i)
    fs = collapse_faults(raw, net)
    assert fs.untestable_count() == 1


def test_collapse_classes_share_detecting_sets():
    # Merging is only sound if every fault in a class is detected by
    # exactly the words that detect the representative.
    rng = random.Random(99)
    for _ in range(8):
        net = random_circuit(rng, max_gates=6)
        raw = enumerate_faults(net)
        words = range(1 << len(net.input_nets))
        sig = {f: frozenset(w for w in words
                            if detects(net, assign_from_word(net, w), f))
               for f in raw.all}
        for i, f in enumerate(raw.all):
            tagged = FaultSet(raw.all)
            tagged.mark_detected(i, i)
            fs = collapse_faults(tagged, net)
            hit = [fs.all[j] for j in range(len(fs)) if fs.detected[j]]
            assert len(hit) == 1
            assert sig[f] == sig[hit[0]], (net.name, f, hit[0])


# ------------------------------------------------------- propagation oracle

def test_faulty_response_matches_oracle():
    rng = random.Random(2026)
    for _ in range(25):
        net = random_circuit(rng)
        fs = enumerate_faults(net)
        for _ in range(8):
            w = rng.getrandbits(len(net.input_nets))
            assign = assign_from_word(net, w)
            for f in fs.all:
                got = faulty_response_word(net, w, f)
                want = _response_word(net, response_bits(net, assign, f))
                assert got == want, (net.name, w, f)


@pytest.mark.parametrize("name", ["c17", "s27"])
def test_lane_masked_injection_matches_width_one(name, request):
    """Each lane of a W-lane call, fault injected there alone, equals a
    width-1 call on that lane's pattern: same detection, same diverged
    nets, same response diff; every other lane keeps its good value."""
    net = request.getfixturevalue(name)
    fs = collapse_faults(enumerate_faults(net), net)
    width = len(net.input_nets)
    words = list(range(1 << width)) if width <= 5 else \
        [random.Random(9).getrandbits(width) for _ in range(40)]
    good = _evaluate(net, PatternBatch.from_scan_words(net, words))
    full = (1 << len(words)) - 1
    fanout, observed = net.fanout(), set(net.output_nets)
    singles = [_evaluate(net, PatternBatch.from_scan_words(net, [w]))
               for w in words]
    for f in fs.all:
        for lane, one in enumerate(singles):
            det1, fval1 = _fault_effect(net, one, 1, f, fanout, observed, 1)
            det, fval = _fault_effect(net, good, full, f, fanout, observed,
                                      1 << lane)
            assert det == det1 << lane, (f, lane)
            assert set(fval) == set(fval1), (f, lane)
            for nid, v in fval.items():
                assert v ^ good[nid] == (fval1[nid] ^ one[nid]) << lane
            assert _response_diff(net, good, f, observed, full, lane) == \
                _response_diff(net, one, f, observed), (f, lane)


def test_faulty_responses_one_fault_per_lane():
    rng = random.Random(31)
    for _ in range(20):
        net = random_circuit(rng)
        faults = list(enumerate_faults(net).all)
        rng.shuffle(faults)
        words = [rng.getrandbits(len(net.input_nets)) for _ in faults]
        got = _faulty_responses(net, words, faults)
        for w, f, resp in zip(words, faults, got):
            assert resp == faulty_response_word(net, w, f)
            want = response_bits(net, assign_from_word(net, w), f)
            assert resp == _response_word(net, want), (net.name, w, f)
    assert _faulty_responses(net, [], []) == []


def test_live_indices_follow_flags_set_during_the_walk():
    done = bytearray([0, 1, 0, 0, 1, 0, 0])
    skip = bytearray([0, 0, 0, 1, 0, 0, 0])
    assert list(_live_indices(done)) == [0, 2, 3, 5, 6]
    assert list(_live_indices(done, skip)) == [0, 2, 5, 6]
    seen = []
    for i in _live_indices(done):
        seen.append(i)
        done[i] = 1
        if i == 2:
            done[5] = 1  # a later fault dropped mid-walk is not visited
    assert seen == [0, 2, 3, 6]
    assert list(_live_indices(done)) == []


def test_fault_simulate_matches_oracle_detection():
    rng = random.Random(77)
    for _ in range(20):
        net = random_circuit(rng)
        words = [rng.getrandbits(len(net.input_nets)) for _ in range(10)]
        batch = PatternBatch.from_scan_words(net, words)
        fs = enumerate_faults(net)
        fault_simulate(net, batch, fs)
        for i, f in enumerate(fs.all):
            hits = [k for k, w in enumerate(words)
                    if detects(net, assign_from_word(net, w), f)]
            assert fs.detected[i] == (1 if hits else 0)
            if hits:
                assert fs.detector[i] == hits[0]


def test_earliest_lane_claims_credit(c17):
    # All-ones repeated in every lane: the fault is detectable by that
    # word in every lane, but only lane 0 may take the credit.
    word = (1 << len(c17.input_nets)) - 1
    batch = PatternBatch.from_scan_words(c17, [word] * 8)
    fs = enumerate_faults(c17)
    counts = fault_simulate(c17, batch, fs)
    assert sum(counts) == fs.detected_count()
    assert counts[1:] == [0] * 7
    assert all(fs.detector[i] == 0 for i in fs.detector)


def test_counts_sum_to_new_detections():
    rng = random.Random(5)
    net = random_circuit(rng)
    words = [rng.getrandbits(len(net.input_nets)) for _ in range(6)]
    batch = PatternBatch.from_scan_words(net, words)
    fs = enumerate_faults(net)
    counts = fault_simulate(net, batch, fs)
    assert sum(counts) == fs.detected_count()


def test_pattern_base_offsets_detector(c17):
    word = (1 << len(c17.input_nets)) - 1
    batch = PatternBatch.from_scan_words(c17, [word])
    fs = enumerate_faults(c17)
    fault_simulate(c17, batch, fs, pattern_base=100)
    assert fs.detected_count() > 0
    assert all(v == 100 for v in fs.detector.values())


def test_shared_good_values_change_nothing(c17):
    rng = random.Random(12)
    words = [rng.getrandbits(len(c17.input_nets)) for _ in range(6)]
    batch = PatternBatch.from_scan_words(c17, words)
    fresh, shared = enumerate_faults(c17), enumerate_faults(c17)
    assert fault_simulate(c17, batch, fresh) == \
        fault_simulate(c17, batch, shared, good=_evaluate(c17, batch))
    assert fresh.detector == shared.detector


def test_dropped_faults_not_recounted(c17):
    word = (1 << len(c17.input_nets)) - 1
    batch = PatternBatch.from_scan_words(c17, [word])
    fs = enumerate_faults(c17)
    first = fault_simulate(c17, batch, fs)
    assert sum(first) > 0
    snapshot = dict(fs.detector)
    again = fault_simulate(c17, batch, fs)
    assert sum(again) == 0
    assert fs.detector == snapshot


# ------------------------------------------------------------ bookkeeping

def test_coverage_metrics():
    fs = FaultSet([Fault(0, 0), Fault(0, 1), Fault(1, 0), Fault(1, 1)])
    assert fs.coverage() == 0.0
    fs.mark_detected(0, 3)
    fs.mark_detected(0, 7)  # second detection must not overwrite
    assert fs.detector[0] == 3
    fs.mark_untestable(3)
    assert fs.coverage() == pytest.approx(1 / 4)
    assert fs.testable_coverage() == pytest.approx(1 / 3)
    assert (fs.detected_count(), fs.untestable_count()) == (1, 1)


def test_empty_set_coverage_is_one():
    fs = FaultSet([])
    assert fs.coverage() == 1.0
    assert fs.testable_coverage() == 1.0


def test_fault_names(c17):
    fs = enumerate_faults(c17)
    names = {fault_name(c17, f) for f in fs.all}
    stems = {c17.net_names[f.net] for f in fs.all if f.branch is None}
    assert stems <= names
    branch = next(f for f in fs.all if f.branch is not None)
    assert "/" in fault_name(c17, branch)
    assert "." in fault_name(c17, branch)


def test_export_format(c17):
    fs = enumerate_faults(c17)
    word = (1 << len(c17.input_nets)) - 1
    fault_simulate(c17, PatternBatch.from_scan_words(c17, [word]), fs)
    text = export_faults(c17, fs)
    lines = text.strip().split("\n")
    assert len(lines) == len(fs)
    for i, line in enumerate(lines):
        assert " SA0" in line or " SA1" in line
        assert (" DETECTED@" in line) == bool(fs.detected[i])
    assert text.endswith("\n")

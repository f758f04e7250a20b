"""Vector handling, PODEM verdicts vs the exhaustive oracle, pool building."""

import random

import pytest

from bistlab.atpg import (
    BacktrackLimit,
    BadChar,
    BadLength,
    PoolExhausted,
    TestVector,
    UNTESTABLE,
    VectorPool,
    build_deterministic_pool,
    count_new_detections,
    export_vectors,
    load_vectors,
    podem,
    select_best_vector,
)
from bistlab.faultsim import Fault, collapse_faults, enumerate_faults, fault_simulate
from bistlab.netlist import parse_bench
from bistlab.simcore import PatternBatch

from conftest import random_circuit
from oracles import assign_from_word, detecting_words, detects


CONTRADICTION = """\
INPUT(a)
OUTPUT(z)
na = NOT(a)
z = AND(a, na)
"""

RECONVERGENT = """\
INPUT(a)
INPUT(b)
OUTPUT(z)
na = NOT(a)
p = AND(a, b)
q = AND(na, b)
z = OR(p, q)
"""


# ------------------------------------------------------------ vector files

def test_load_vectors_happy_path():
    vecs = load_vectors("0101\n# full comment\n1111  # trailing\n", 4)
    assert [v.as_string() for v in vecs] == ["0101", "1111"]
    assert vecs[0].bits == 0b1010  # leftmost character is input 0
    assert all(v.origin == "file" for v in vecs)


def test_load_vectors_bad_length_names_line():
    with pytest.raises(BadLength) as err:
        load_vectors("0101\n011\n", 4)
    assert "line 2" in str(err.value)


def test_load_vectors_bad_char_names_position():
    with pytest.raises(BadChar) as err:
        load_vectors("0121\n", 4)
    assert "line 1" in str(err.value)
    assert "column 3" in str(err.value)


def test_xfill_is_seeded():
    text = "x0x1\nxxxx\n"
    a = load_vectors(text, 4, rng=random.Random(7))
    b = load_vectors(text, 4, rng=random.Random(7))
    assert [v.bits for v in a] == [v.bits for v in b]
    for v in a:  # fixed positions survive any fill
        assert (v.bits >> 1) & 1 == 0 or v.as_string()[1] != "0"
    assert a[0].as_string()[1] == "0"
    assert a[0].as_string()[3] == "1"


def test_export_load_round_trip():
    pool = VectorPool()
    pool.add(TestVector(0b1010, 4, "unit"))
    pool.add(TestVector(0b0001, 4, "unit"))
    text = export_vectors(pool, detects=[3, 1])
    assert "# detects=3" in text
    back = load_vectors(text, 4)
    assert [v.bits for v in back] == [0b1010, 0b0001]


# ---------------------------------------------------------- podem verdicts

def test_podem_matches_exhaustive_oracle():
    rng = random.Random(31)
    for _ in range(15):
        net = random_circuit(rng)
        fs = collapse_faults(enumerate_faults(net), net)
        for f in fs.all:
            verdict = podem(net, f)
            words = detecting_words(net, f)
            if verdict is UNTESTABLE:
                assert words == [], (net.name, f)
            else:
                assert words, (net.name, f)
                assert detects(net, assign_from_word(net, verdict.bits), f)


def test_contradiction_output_untestable():
    net = parse_bench(CONTRADICTION, "contra")
    z = net.net_id("z")
    assert podem(net, Fault(z, 0)) is UNTESTABLE
    assert detecting_words(net, Fault(z, 0)) == []
    # stuck-1 on the same net flips a constant-0 output: always detected
    vec = podem(net, Fault(z, 1))
    assert vec is not UNTESTABLE


def test_backtrack_budget_trips():
    # The branch fault makes na constant 1, so both machines compute
    # z = b: redundant, but the proof needs backtracks a zero budget
    # cannot pay for. The overrun must surface, not become a verdict.
    net = parse_bench(RECONVERGENT, "reconv")
    a = net.net_id("a")
    fault = Fault(a, 0, (0, 0))
    with pytest.raises(BacktrackLimit) as err:
        podem(net, fault, budget=0)
    assert err.value.fault == fault
    assert err.value.budget == 0
    assert podem(net, fault) is UNTESTABLE  # generous budget finishes the proof
    assert detecting_words(net, fault) == []


def test_podem_vectors_are_full_width():
    net = parse_bench(RECONVERGENT, "reconv")
    fs = collapse_faults(enumerate_faults(net), net)
    for f in fs.all:
        v = podem(net, f)
        if v is not UNTESTABLE:
            assert v.width == len(net.input_nets)
            assert v.bits >> v.width == 0


# ------------------------------------------------------------ pool queries

def test_count_new_detections_is_pure(c17):
    fs = enumerate_faults(c17)
    word = (1 << len(c17.input_nets)) - 1
    batch = PatternBatch.from_scan_words(c17, [word])
    before = bytes(fs.detected)
    n = count_new_detections(c17, batch, fs)
    assert n > 0
    assert bytes(fs.detected) == before
    fault_simulate(c17, batch, fs)
    assert count_new_detections(c17, batch, fs) == 0


def test_select_best_vector_semantics(c17):
    fs = collapse_faults(enumerate_faults(c17), c17)
    width = len(c17.input_nets)
    all_ones = (1 << width) - 1
    pool = VectorPool()
    pool.add(TestVector(all_ones, width, "unit"))
    pool.add(TestVector(all_ones, width, "unit"))  # tie: index 0 must win
    pool.add(TestVector(0, width, "unit"))
    vec, n = select_best_vector(c17, pool, fs)
    assert n == count_new_detections(
        c17, PatternBatch.from_scan_words(c17, [all_ones]), fs)
    assert list(pool.consumed) == [1, 0, 0]
    fault_simulate(c17, PatternBatch.from_scan_words(c17, [vec.bits]), fs)
    # the zero word still finds new faults and outbids the spent duplicate
    vec2, n2 = select_best_vector(c17, pool, fs)
    assert vec2.bits == 0 and n2 > 0
    fault_simulate(c17, PatternBatch.from_scan_words(c17, [0]), fs)
    # only the duplicate is left; nothing new, but it still comes back
    vec3, n3 = select_best_vector(c17, pool, fs)
    assert n3 == 0 and vec3.bits == all_ones
    with pytest.raises(PoolExhausted):
        select_best_vector(c17, pool, fs)


# ------------------------------------------------------------ pool builder

def _apply_pool(net, pool, fs):
    for k, v in enumerate(pool.vectors):
        fault_simulate(net, PatternBatch.from_scan_words(net, [v.bits]), fs,
                       pattern_base=k)


def test_pool_reaches_full_coverage_c17(c17):
    fs = collapse_faults(enumerate_faults(c17), c17)
    pool = build_deterministic_pool(c17, fs)
    assert fs.untestable_count() == 0
    assert pool.backtracked == ()
    _apply_pool(c17, pool, fs)
    assert fs.testable_coverage() == 1.0
    assert pool.detects_at_build is not None
    assert all(n > 0 for n in pool.detects_at_build)
    assert sum(pool.detects_at_build) == len(fs)


def test_pool_reaches_full_coverage_s27(s27):
    fs = collapse_faults(enumerate_faults(s27), s27)
    pool = build_deterministic_pool(s27, fs)
    _apply_pool(s27, pool, fs)
    assert fs.testable_coverage() == 1.0


def test_pool_marks_untestable_without_applying():
    net = parse_bench(CONTRADICTION, "contra")
    fs = collapse_faults(enumerate_faults(net), net)
    pool = build_deterministic_pool(net, fs)
    assert fs.untestable_count() > 0
    assert fs.detected_count() == 0  # vectors built, nothing applied
    _apply_pool(net, pool, fs)
    assert fs.testable_coverage() == 1.0


def test_pool_skip_indices_are_not_attempted(c17):
    fs = collapse_faults(enumerate_faults(c17), c17)
    pool = build_deterministic_pool(c17, fs, skip=set(range(len(fs))))
    assert len(pool) == 0
    assert fs.untestable_count() == 0


def test_pool_records_backtracked_faults():
    net = parse_bench(RECONVERGENT, "reconv")
    fs = collapse_faults(enumerate_faults(net), net)
    pool = build_deterministic_pool(net, fs, budget=0)
    assert pool.backtracked
    for i in pool.backtracked:
        assert not fs.untestable[i]  # budget overrun is not a verdict
    # the recorded indices are exactly the skip set for a retry
    again = build_deterministic_pool(net, fs, budget=0,
                                     skip=set(pool.backtracked))
    assert again.backtracked == ()


def test_pool_build_is_deterministic(s27):
    fs1 = collapse_faults(enumerate_faults(s27), s27)
    fs2 = collapse_faults(enumerate_faults(s27), s27)
    p1 = build_deterministic_pool(s27, fs1)
    p2 = build_deterministic_pool(s27, fs2)
    assert [v.bits for v in p1.vectors] == [v.bits for v in p2.vectors]
    assert p1.detects_at_build == p2.detects_at_build

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
    _Podem,
    _circuit_tables,
    _controllability,
    _sim_pair,
    build_deterministic_pool,
    count_new_detections,
    export_vectors,
    load_vectors,
    podem,
    select_best_vector,
)
from bistlab.faultsim import (
    Fault,
    FaultSet,
    collapse_faults,
    enumerate_faults,
    fault_simulate,
)
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
    n = count_new_detections(c17, batch, fs)[0]
    assert n > 0
    assert bytes(fs.detected) == before
    fault_simulate(c17, batch, fs)
    assert count_new_detections(c17, batch, fs)[0] == 0


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
        c17, PatternBatch.from_scan_words(c17, [all_ones]), fs)[0]
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


def test_circuit_tables_built_once_per_pool(s27, monkeypatch):
    from bistlab import atpg

    builds = []
    monkeypatch.setattr(atpg, "_controllability",
                        lambda net: builds.append(net) or _controllability(net))
    net = parse_bench(
        "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nn = NAND(a, b)\nz = NOT(n)\n")
    fs = collapse_faults(enumerate_faults(net), net)
    assert len(fs.all) > 1
    build_deterministic_pool(net, fs)
    assert builds == [net]  # one build shared by every PODEM call
    tables = _circuit_tables(net)
    builds.clear()
    first, second = (_Podem(net, f, 0, random.Random(0), tables)
                     for f in fs.all[:2])
    assert builds == []
    assert first.producer is second.producer and first.cc0 is second.cc0
    assert podem(net, fs.all[0], tables=tables) == podem(net, fs.all[0])
    input_set, observed, producer, cc0, cc1 = _circuit_tables(s27)
    assert input_set == set(s27.input_nets)
    assert observed == set(s27.output_nets)
    assert producer == {g.output: g for g in s27.gates}
    assert (cc0, cc1) == _controllability(s27)


# ------------------------------------------- incremental implication

class _CheckedPodem(_Podem):
    """Event-driven implication, checked against a full re-simulation."""

    steps = 0

    def _imply(self, assign, changed, good, faulty):
        super()._imply(assign, changed, good, faulty)
        assert (good, faulty) == _sim_pair(self.net, assign, self.fault)
        _CheckedPodem.steps += 1


class _ReferencePodem(_Podem):
    """Both machines re-simulated from scratch after every step."""

    def _imply(self, assign, changed, good, faulty):
        good[:], faulty[:] = _sim_pair(self.net, assign, self.fault)


def _podem_outcome(cls, net, fault, budget):
    try:
        return cls(net, fault, budget, random.Random(11)).run()
    except BacktrackLimit as exc:
        return ("limit", exc.fault, exc.budget)


def _implication_cases(c17, s27):
    rng = random.Random(23)
    nets = [c17, s27,
            parse_bench(RECONVERGENT, "reconv"),
            parse_bench(CONTRADICTION, "contra")]
    nets += [random_circuit(rng, max_gates=8) for _ in range(30)]
    for net in nets:
        faults = list(collapse_faults(enumerate_faults(net), net).all)
        # stem faults on input nets are outside the enumerated universe
        faults += [Fault(nid, v) for nid in net.input_nets for v in (0, 1)]
        for f in faults:
            yield net, f


def test_incremental_implication_matches_full_resimulation(c17, s27):
    _CheckedPodem.steps = 0
    kinds = set()
    for net, fault in _implication_cases(c17, s27):
        for budget in (0, 100):
            got = _podem_outcome(_CheckedPodem, net, fault, budget)
            want = _podem_outcome(_ReferencePodem, net, fault, budget)
            assert got == want, (net.name, fault, budget)
            kinds.add("limit" if isinstance(got, tuple) else
                      "untestable" if got is UNTESTABLE else "vector")
    assert kinds == {"limit", "untestable", "vector"}
    assert _CheckedPodem.steps > 1000


def test_implication_follows_any_assignment_walk(c17, s27):
    # PODEM's own order never unassigns the site of an input stem
    # fault; a random walk over the inputs also covers that case.
    rng = random.Random(29)
    for net, fault in _implication_cases(c17, s27):
        podem_ = _Podem(net, fault, 0, rng)
        assign = {}
        good, faulty = _sim_pair(net, assign, fault)
        for _ in range(8):
            changed = rng.sample(net.input_nets,
                                 rng.randint(1, len(net.input_nets)))
            for nid in changed:
                v = rng.choice((0, 1, None))
                if v is None:
                    assign.pop(nid, None)
                else:
                    assign[nid] = v
            podem_._imply(assign, changed, good, faulty)
            assert (good, faulty) == _sim_pair(net, assign, fault)


# ---------------------------------------------- lane-packed counting

def _count_cases(s27):
    rng = random.Random(41)
    nets = [s27] + [random_circuit(rng) for _ in range(20)]
    for net in nets:
        fs = collapse_faults(enumerate_faults(net), net)
        width = len(net.input_nets)
        words = [rng.getrandbits(width) for _ in range(rng.randint(1, 9))]
        words.append(words[0])  # a duplicate lane counts on its own
        for i in range(len(fs)):
            if rng.random() < 0.3:
                fs.mark_detected(i, 0)
        yield net, fs, words


def _count_one(net, word, fs):
    return count_new_detections(net, PatternBatch.from_scan_words(net, [word]),
                                fs)[0]


def test_lane_packed_counts_match_single_lane_calls(s27):
    for net, fs, words in _count_cases(s27):
        before = bytes(fs.detected)
        batch = PatternBatch.from_scan_words(net, words)
        counts = count_new_detections(net, batch, fs)
        assert counts == [_count_one(net, w, fs) for w in words]
        assert bytes(fs.detected) == before


def _reference_pick(net, pool, fs):
    best_i, best_n = None, -1
    for i in pool.unconsumed():
        n = _count_one(net, pool.vectors[i].bits, fs)
        if n > best_n:
            best_i, best_n = i, n
    return best_i, best_n


def test_select_best_vector_matches_single_lane_ranking(s27):
    for net, fs, words in _count_cases(s27):
        width = len(net.input_nets)
        pool = VectorPool()
        for w in words:
            pool.add(TestVector(w, width, "unit"))
        while pool.unconsumed():
            want_i, want_n = _reference_pick(net, pool, fs)
            vec, n = select_best_vector(net, pool, fs)
            assert (vec, n) == (pool.vectors[want_i], want_n)
            assert pool.consumed[want_i]
            fault_simulate(net, PatternBatch.from_scan_words(net, [vec.bits]),
                           fs)
        # everything left detects nothing: the lowest index still wins
        pool.consumed[:] = bytes(len(pool))
        fs.detected[:] = b"\1" * len(fs)
        vec, n = select_best_vector(net, pool, fs)
        assert n == 0 and list(pool.consumed).index(1) == 0


def _reference_pool(net, fs, budget, fill_seed=0):
    """PODEM over live faults, then greedy compaction by width-1 calls."""
    rng = random.Random(fill_seed)
    work = FaultSet(fs.all)
    work.detected[:] = fs.detected
    raw, limited = [], []
    for i, f in enumerate(work.all):
        if work.detected[i] or fs.untestable[i]:
            continue
        try:
            verdict = podem(net, f, budget, rng)
        except BacktrackLimit:
            limited.append(i)
            continue
        if verdict is UNTESTABLE:
            continue
        raw.append(verdict)
        fault_simulate(net, PatternBatch.from_scan_words(net, [verdict.bits]),
                       work)
    final = FaultSet(fs.all)
    final.detected[:] = fs.detected
    vectors, detects = [], []
    while raw:
        counts = [_count_one(net, v.bits, final) for v in raw]
        best_n = -1
        for k, n in enumerate(counts):
            if n > best_n:
                best_k, best_n = k, n
        if best_n <= 0:
            break
        vec = raw.pop(best_k)
        vectors.append(vec)
        detects.append(best_n)
        fault_simulate(net, PatternBatch.from_scan_words(net, [vec.bits]),
                       final)
    return vectors, detects, tuple(limited)


def test_pool_compaction_matches_single_lane_greedy(s27):
    rng = random.Random(57)
    cases = [(s27, 10 ** 6), (parse_bench(RECONVERGENT, "reconv"), 0)]
    cases += [(random_circuit(rng), rng.choice((0, 100)))
              for _ in range(20)]
    for net, budget in cases:
        fs = collapse_faults(enumerate_faults(net), net)
        want = _reference_pool(net, fs, budget)
        pool = build_deterministic_pool(net, fs, budget=budget)
        assert (pool.vectors, pool.detects_at_build, pool.backtracked) == \
            want, net.name

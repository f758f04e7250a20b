"""LFSR/MISR stepping, polynomial checks, and the reseeding generator."""

import importlib.util
import os

import pytest

from bistlab.registers import (
    BilboMode,
    DegreeMismatch,
    GeneratorCycleDetected,
    IpBilbo,
    IpBilboConfig,
    Polynomial,
    RegisterState,
    default_schedule,
    fold_response,
    ipbilbo_next_pattern,
    is_primitive,
    next_lfsr,
    next_misr,
)
from bistlab.registers import _polytab

from oracles import lfsr_orbit

P3A = Polynomial(3, 0b011)   # x^3 + x + 1
P3B = Polynomial(3, 0b101)   # x^3 + x^2 + 1


def _orbit_ints(poly, seed):
    s = RegisterState(poly.degree, seed)
    out = [s.bits]
    while True:
        s = next_lfsr(s, poly)
        if s.bits == out[0]:
            return out
        out.append(s.bits)


# ------------------------------------------------------------ pure stepping

def test_degree3_orbit_frozen():
    assert _orbit_ints(P3A, 0b001) == [0b001, 0b100, 0b010, 0b101,
                                       0b110, 0b111, 0b011]


def test_orbit_matches_bitlist_oracle():
    for degree in range(2, 9):
        for mask in _polytab.TAPS[degree]:
            poly = Polynomial(degree, mask)
            exps = poly.exponents()
            seed = 1
            want = lfsr_orbit(degree, exps, [(seed >> j) & 1
                                             for j in range(degree)])
            got = _orbit_ints(poly, seed)
            assert len(got) == len(want) == (1 << degree) - 1
            for bits, ref in zip(got, want):
                assert tuple((bits >> j) & 1 for j in range(degree)) == ref


def test_misr_with_zero_word_is_plain_lfsr():
    s = RegisterState(3, 0b101)
    assert next_misr(s, P3A, 0) == next_lfsr(s, P3A)


def test_misr_folds_in_word():
    s = RegisterState(3, 0b001)
    assert next_misr(s, P3A, 0b011).bits == next_lfsr(s, P3A).bits ^ 0b011


def test_misr_rejects_wide_word():
    with pytest.raises(DegreeMismatch):
        next_misr(RegisterState(3, 1), P3A, 0b1000)


def test_lfsr_rejects_width_mismatch():
    with pytest.raises(DegreeMismatch):
        next_lfsr(RegisterState(4, 1), P3A)


def test_fold_response():
    assert fold_response(0b101101, 3) == 0
    assert fold_response(0b101100, 3) == 0b001
    assert fold_response(0b11, 5) == 0b11
    assert fold_response(0, 4) == 0


# ------------------------------------------------------------- polynomials

def test_polynomial_validation():
    with pytest.raises(ValueError):
        Polynomial(1, 0b1)
    with pytest.raises(ValueError):
        Polynomial(3, 0b010)         # no constant term
    with pytest.raises(ValueError):
        Polynomial(3, 0b1001)        # coefficient at the degree


def test_from_exponents_round_trip():
    p = Polynomial.from_exponents([5, 2, 0])
    assert p.degree == 5
    assert p.exponents() == [5, 2, 0]
    assert str(p) == "x^5 + x^2 + 1"


def test_from_exponents_errors():
    with pytest.raises(ValueError):
        Polynomial.from_exponents([5, 5, 0])
    with pytest.raises(ValueError):
        Polynomial.from_exponents([5, 2])
    with pytest.raises(ValueError):
        Polynomial.from_exponents([5, -1, 0])


def test_from_exponents_proves_primitivity():
    p = Polynomial.from_exponents([4, 1, 0], check_primitive=True)
    assert p.primitive
    with pytest.raises(ValueError):
        Polynomial.from_exponents([4, 2, 0], check_primitive=True)


def test_register_state_validation():
    with pytest.raises(ValueError):
        RegisterState(0, 0)
    with pytest.raises(ValueError):
        RegisterState(3, 0b1000)
    with pytest.raises(ValueError):
        RegisterState(3, -1)


# ------------------------------------------------------------- mode wiring

def test_bilbo_mode():
    assert BilboMode(0).cycles_per_pattern == 2
    assert BilboMode(1).cycles_per_pattern == 1
    with pytest.raises(ValueError):
        BilboMode(2)


def test_config_validation():
    with pytest.raises(ValueError):
        IpBilboConfig(())
    with pytest.raises(DegreeMismatch):
        IpBilboConfig((P3A, Polynomial(4, 0b1001)))


# --------------------------------------------------- reseeding step, frozen

def test_indirect_step_frozen():
    # compress 001 with response 011 under P3A, then free-run under P3B.
    cfg = IpBilboConfig((P3A, P3B))
    nxt, cycles = ipbilbo_next_pattern(RegisterState(3, 0b001), cfg,
                                       BilboMode(0), 0b011)
    assert cycles == 2
    assert nxt.bits == 0b011


def test_direct_step_frozen():
    cfg = IpBilboConfig((P3A, P3B))
    nxt, cycles = ipbilbo_next_pattern(RegisterState(3, 0b001), cfg,
                                       BilboMode(1), 0b011)
    assert cycles == 1
    assert nxt.bits == 0b111


def test_indirect_is_compress_then_generate():
    cfg = IpBilboConfig((P3A, P3B))
    s = RegisterState(3, 0b101)
    compress = next_misr(s, P3A, fold_response(0b110, 3))
    want = next_lfsr(compress, P3B)
    got, _ = ipbilbo_next_pattern(s, cfg, BilboMode(0), 0b110)
    assert got == want


def test_wide_response_is_folded():
    cfg = IpBilboConfig((P3A, P3B))
    a, _ = ipbilbo_next_pattern(RegisterState(3, 0b001), cfg, BilboMode(1),
                                0b101101)
    b, _ = ipbilbo_next_pattern(RegisterState(3, 0b001), cfg, BilboMode(1),
                                fold_response(0b101101, 3))
    assert a == b


def test_schedule_index_selects_polynomial():
    cfg = IpBilboConfig((P3A, P3B))
    s = RegisterState(3, 0b100)
    at0, _ = ipbilbo_next_pattern(s, cfg, BilboMode(1), 0, schedule_index=0)
    at1, _ = ipbilbo_next_pattern(s, cfg, BilboMode(1), 0, schedule_index=1)
    assert at0 == next_lfsr(s, P3A)
    assert at1 == next_lfsr(s, P3B)


# ------------------------------------------------------- stateful generator

def test_generator_seed_default_and_zero():
    gen = IpBilbo(IpBilboConfig((P3A, P3B)))
    assert gen.state.bits == 0b111
    with pytest.raises(ValueError):
        IpBilbo(IpBilboConfig((P3A, P3B)), seed_bits=0)


def test_generator_advances_schedule_by_cycles():
    gen = IpBilbo(IpBilboConfig((P3A, P3B)))
    assert gen.next_pattern(BilboMode(1), 0) == 1
    assert gen.schedule_index == 1
    assert gen.next_pattern(BilboMode(0), 0) == 2
    assert gen.schedule_index == 1


def test_guard_trips_on_replay():
    # Degree-2 orbit has 3 states; with one polynomial the (state,
    # position) pair must repeat within 4 direct steps.
    p2 = Polynomial(2, 0b11)
    gen = IpBilbo(IpBilboConfig((p2,)), seed_bits=0b01)
    with pytest.raises(GeneratorCycleDetected):
        for _ in range(4):
            gen.next_pattern(BilboMode(1), 0)


def test_load_clears_guard():
    p2 = Polynomial(2, 0b11)
    gen = IpBilbo(IpBilboConfig((p2,)), seed_bits=0b01)
    for _ in range(3):
        gen.next_pattern(BilboMode(1), 0)
    gen.load(0b01)
    for _ in range(3):
        gen.next_pattern(BilboMode(1), 0)


# ----------------------------------------------------------- shipped table

def test_default_schedule_known_degrees():
    for width in (2, 3, 8, 16, 91, 128):
        sched = default_schedule(width)
        assert 1 <= len(sched) <= 2
        assert all(p.degree == width and p.primitive for p in sched)


def test_default_schedule_missing_degree_hint():
    with pytest.raises(ValueError) as err:
        default_schedule(611)
    assert "611" in str(err.value)
    assert "607" in str(err.value)


def test_table_entries_verified_primitive_small():
    for degree in range(2, 17):
        for mask in _polytab.TAPS[degree]:
            ok, why = is_primitive(degree, mask)
            assert ok, (degree, mask, why)


def test_is_primitive_rejections():
    ok, why = is_primitive(4, 0b0101)     # (x^2+x+1)^2
    assert not ok and "reducible" in why
    ok, why = is_primitive(4, 0b1111)     # irreducible, order 5
    assert not ok and "order" in why
    ok, why = is_primitive(80, 0b1001)
    assert not ok


def test_primitive_accepts_known_good():
    ok, why = is_primitive(16, _polytab.TAPS[16][0])
    assert ok, why


def _trial_primes(num):
    out, p = set(), 2
    while p * p <= num:
        while num % p == 0:
            out.add(p)
            num //= p
        p += 1
    if num > 1:
        out.add(num)
    return out


def test_group_primes_give_the_same_verdicts():
    for degree in range(2, 13):
        primes = _trial_primes((1 << degree) - 1)
        for mask in range(1, 1 << degree, 2):
            assert is_primitive(degree, mask, primes) == \
                is_primitive(degree, mask), (degree, mask)


def test_primitive_exactly_when_orbit_is_maximal():
    for degree in range(2, 11):
        for mask in range(1, 1 << degree, 2):
            exps = Polynomial(degree, mask).exponents()
            period = len(lfsr_orbit(degree, exps, [1] + [0] * (degree - 1)))
            assert is_primitive(degree, mask)[0] == \
                (period == (1 << degree) - 1), (degree, mask)


def test_bad_group_primes_refused():
    good = _polytab.TAPS[16][0]  # 2^16 - 1 = 3 * 5 * 17 * 257
    assert is_primitive(16, good, [3, 5, 17, 257])[0]
    for primes in ([3, 5, 17], [15, 17, 257], [3, 5, 17, 257, 7], []):
        ok, why = is_primitive(16, good, primes)
        assert not ok and "2^n - 1" in why, primes
    # x^4+x^3+x^2+x+1 has order 5: the list [5] alone would bless it
    assert not is_primitive(4, 0b1111, [5])[0]
    # a complete list lifts the on-the-fly cap
    primes = _trial_primes((1 << 80) - 1)
    for mask in _polytab.TAPS[80]:
        assert not is_primitive(80, mask)[0]
        assert is_primitive(80, mask, primes) == (True, "maximal length proven")
    assert not is_primitive(80, 0b1001, primes)[0]


def test_polytab_tool_reproduces_the_table(tmp_path, monkeypatch):
    pytest.importorskip("sympy")
    tool_path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "tools", "gen_polytab.py")
    monkeypatch.chdir(tmp_path)  # the tool must not depend on the cwd
    spec = importlib.util.spec_from_file_location("gen_polytab", tool_path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.is_primitive is is_primitive
    for degree in range(2, 33):
        primes = tool.mersenne_prime_factors(degree, budget=10)
        found = tuple(mask for _taps, mask in tool.find_polys(degree, primes))
        assert found == _polytab.TAPS[degree], degree

import random

import pytest

from bistlab.netlist import parse_bench
from bistlab.simcore import PatternBatch, WidthMismatch, simulate_batch

import oracles
from conftest import random_circuit


def test_s27_all_zero_response(s27):
    # hand-derived: G14=1, G8=G6&G14=0, G12=NOR(G1,G7)=1, G13=NOR(G2,G12)=0,
    # G11=NOR(G5,G9)=0 ... settles with G17=1 and all three next-state nets 0
    vals = oracles.eval_nets(s27, oracles.assign_from_word(s27, 0))
    expect = {"G17": 1, "G10": 0, "G11": 0, "G13": 0}
    assert {n: vals[s27.net_id(n)] for n in expect} == expect
    out = simulate_batch(s27, PatternBatch.from_scan_words(s27, [0])).bits
    assert {n: out[s27.net_id(n)] for n in expect} == expect


def test_batch_equals_serial_on_random_circuits():
    rng = random.Random(23)
    for _ in range(30):
        net = random_circuit(rng)
        width = len(net.input_nets)
        words = [rng.getrandbits(width) for _ in range(17)]
        batch = PatternBatch.from_scan_words(net, words)
        resp = simulate_batch(net, batch).scan_words(net)
        for lane, word in enumerate(words):
            assign = oracles.assign_from_word(net, word)
            expect = oracles.response_bits(net, assign)
            got = tuple((resp[lane] >> j) & 1 for j in range(len(expect)))
            assert got == expect


def test_batch_width_contract_32_lanes_and_more(c17):
    words = [k % 2 and 0b10101 or 0b01010 for k in range(64)]
    batch = PatternBatch.from_scan_words(c17, words)
    assert batch.width == 64
    out = simulate_batch(c17, batch).scan_words(c17)
    assert len(out) == 64
    assert out[0] == out[2] and out[1] == out[3]


def test_from_scan_words_rejects_wide_word(c17):
    with pytest.raises(ValueError):
        PatternBatch.from_scan_words(c17, [1 << 5])


def test_batch_key_mismatch_raises(c17):
    batch = PatternBatch.from_scan_words(c17, [3])
    broken = PatternBatch(width=1,
                          bits=dict(list(batch.bits.items())[:-1]))
    with pytest.raises(WidthMismatch):
        simulate_batch(c17, broken)


def test_xor_xnor_parity():
    net = parse_bench(
        "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(x)\nOUTPUT(y)\n"
        "x = XOR(a, b, c)\ny = XNOR(a, b, c)\n"
    )
    words = list(range(8))
    resp = simulate_batch(net, PatternBatch.from_scan_words(net, words))
    for word, got in zip(words, resp.scan_words(net)):
        parity = bin(word).count("1") % 2
        assert got == parity | (1 - parity) << 1  # bit 0 = x, bit 1 = y


def test_dff_refused_in_combinational_sim(s27_raw):
    batch = PatternBatch.from_scan_words(s27_raw, [0])
    with pytest.raises(WidthMismatch, match="sequential element"):
        simulate_batch(s27_raw, batch)

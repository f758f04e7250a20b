import os
import pickle
import random

import pytest

from bistlab.netlist import Gate, Netlist, full_scan_transform, load_bench, parse_bench
from bistlab.simcore import (
    PatternBatch,
    WidthMismatch,
    _evaluate,
    _response_words,
    simulate_batch,
)

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


@pytest.mark.parametrize("width, lanes", [(1, 2), (3, 8), (2, -1)])
def test_lane_masks_wider_than_the_batch_raise(c17, width, lanes):
    bits = dict.fromkeys(c17.input_nets, 0)
    bits[c17.input_nets[-1]] = lanes
    with pytest.raises(WidthMismatch, match="wider than the batch"):
        simulate_batch(c17, PatternBatch(width, bits))


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


DATA = os.path.join(os.path.dirname(__file__), "data")
WIDTHS = (1, 2, 63, 64, 65)


def _equivalence_circuits():
    nets = [load_bench("c17"), full_scan_transform(load_bench("s27"))]
    nets += [full_scan_transform(load_bench(os.path.join(DATA, f)))
             for f in ("synth_fold.bench", "synth_scan.bench")]
    rng = random.Random(77)
    nets += [random_circuit(rng, max_gates=20, name=f"r{k}") for k in range(50)]
    return nets


def test_evaluate_matches_oracle_lane_by_lane():
    rng = random.Random(41)
    for net in _equivalence_circuits():
        n = len(net.input_nets)
        for width in WIDTHS:
            words = [rng.getrandbits(n) for _ in range(width)]
            values = _evaluate(net, PatternBatch.from_scan_words(net, words))
            for lane, word in enumerate(words):
                want = oracles.eval_nets(net, oracles.assign_from_word(net, word))
                got = {nid: values[nid] >> lane & 1 for nid in want}
                assert got == want, (net.name, width, lane)


def test_missing_inputs_and_undriven_nets_read_zero():
    net = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NAND(a, b)\n")
    a, b = net.input_nets
    values = _evaluate(net, PatternBatch(2, {a: 0b11}))  # b left out
    assert values[b] == 0 and values[net.net_id("z")] == 0b11
    # net 2 is named but nothing drives it
    bare = Netlist("bare", [Gate(0, "OR", (0, 2), 1, "z")], ["a", "z", "u"],
                   [0], [1])
    assert _evaluate(bare, PatternBatch(1, {0: 0})) == [0, 0, 0]


def test_compiled_source_takes_no_names_from_the_netlist():
    # names that would be code, were they ever pasted into the kernel
    names = ["a", "b", "__import__('os')._exit(3)", "z\n)"]
    gates = [Gate(0, "XNOR", (0, 1), 2, names[2]),
             Gate(1, "NOT", (2,), 3, names[3])]
    net = Netlist("x\"'", gates, names, [0, 1], [3])
    out = simulate_batch(net, PatternBatch.from_scan_words(net, [0, 1, 2, 3]))
    assert out.scan_words(net) == [0, 1, 1, 0]


def _reference_pack(net, words):
    """Bit by bit: input j of lane i is bit j of words[i]."""
    bits = {nid: 0 for nid in net.input_nets}
    for lane, w in enumerate(words):
        for j, nid in enumerate(net.input_nets):
            bits[nid] |= (w >> j & 1) << lane
    return bits


@pytest.mark.parametrize("width", [0, 1, 2, 64, 200])
def test_from_scan_words_matches_bitwise_reference(width):
    net = full_scan_transform(load_bench(os.path.join(DATA, "synth_scan.bench")))
    n = len(net.input_nets)
    rng = random.Random(width)
    words = [rng.getrandbits(n) for _ in range(width)]
    words[:2] = [0, (1 << n) - 1][:width]
    batch = PatternBatch.from_scan_words(net, words)
    assert batch.width == width
    assert batch.bits == _reference_pack(net, words)
    assert list(batch.bits) == list(net.input_nets)


@pytest.mark.parametrize("bad", [1 << 5, -1])
@pytest.mark.parametrize("before", [[], [3, 31]])
def test_from_scan_words_rejects_wide_and_negative_words(c17, bad, before):
    with pytest.raises(WidthMismatch, match="wider than 5 inputs"):
        PatternBatch.from_scan_words(c17, before + [bad])


def _reference_response_word(net, values, lane):
    w = 0
    for j, nid in enumerate(net.output_nets):
        w |= (values[nid] >> lane & 1) << j
    return w


def test_response_words_unpack_every_lane():
    rng = random.Random(8)
    for net in _equivalence_circuits()[:14]:
        n = len(net.input_nets)
        for width in WIDTHS:
            words = [rng.getrandbits(n) for _ in range(width)]
            values = _evaluate(net, PatternBatch.from_scan_words(net, words))
            assert _response_words(net, values, width) == [
                _reference_response_word(net, values, lane)
                for lane in range(width)], (net.name, width)


def test_netlist_pickles_after_evaluation():
    net = full_scan_transform(load_bench("s27"))
    words = list(range(1 << len(net.input_nets)))
    batch = PatternBatch.from_scan_words(net, words)
    before = simulate_batch(net, batch)
    copy = pickle.loads(pickle.dumps(net))
    assert simulate_batch(copy, batch) == before
    assert copy.net_names == net.net_names and copy.gates == net.gates

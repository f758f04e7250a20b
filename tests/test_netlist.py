import logging
import os
import random

import pytest

from bistlab.netlist import (
    BenchSyntaxError,
    CombinationalCycle,
    Gate,
    MultipleDrivers,
    Netlist,
    UndefinedNet,
    UnsupportedGate,
    circuit_profile,
    full_scan_transform,
    levelize,
    load_bench,
    parse_bench,
    resolve_bench_path,
    to_bench,
)

from conftest import random_circuit


def test_s27_shape(s27_raw):
    net = s27_raw
    assert len(net.primary_inputs) == 4
    assert len(net.primary_outputs) == 1
    dffs = [g for g in net.gates if g.kind == "DFF"]
    assert len(dffs) == 3
    assert len(net.gates) - len(dffs) == 10


def test_s27_scan_profile(s27):
    prof = circuit_profile(s27)
    assert (prof.pis, prof.pos, prof.ppis, prof.ppos) == (4, 1, 3, 3)
    assert prof.scan_length == 7
    assert prof.gate_count == 10


def test_c17_shape(c17):
    prof = circuit_profile(c17)
    assert (prof.pis, prof.pos, prof.ppis, prof.ppos) == (5, 2, 0, 0)
    assert prof.scan_length == 5
    assert prof.gate_count == 6
    assert not any(g.kind == "DFF" for g in c17.gates)


def test_case_and_whitespace_tolerant():
    net = parse_bench(
        "input( a )\nINPUT(b)\noutput(z)\n z = nand( a , b )\n"
    )
    assert [net.net_name(i) for i in net.primary_inputs] == ["a", "b"]
    assert net.gates[0].kind == "NAND"


def test_comments_and_blank_lines():
    net = parse_bench(
        "# header\nINPUT(a)\n\nOUTPUT(z)\nz = NOT(a)  # trailing\n"
    )
    assert len(net.gates) == 1


def test_syntax_error_carries_line_number():
    with pytest.raises(BenchSyntaxError) as exc:
        parse_bench("INPUT(a)\nOUTPUT(z)\nz == NOT(a)\n")
    assert exc.value.line_no == 3


@pytest.mark.parametrize("args", ["a b, b", "a, ", "a, (b)", "a, b=c"])
def test_malformed_input_list(args):
    with pytest.raises(BenchSyntaxError) as exc:
        parse_bench(f"INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND({args})\n")
    assert exc.value.line_no == 4


def test_unary_gate_arity_enforced():
    with pytest.raises(BenchSyntaxError):
        parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NOT(a, b)\n")
    with pytest.raises(BenchSyntaxError):
        parse_bench("INPUT(a)\nOUTPUT(z)\nz = AND(a)\n")


def test_unsupported_gate():
    with pytest.raises(UnsupportedGate):
        parse_bench("INPUT(a)\nOUTPUT(z)\nz = MAJ3(a, a, a)\n")


def test_multiple_drivers():
    with pytest.raises(MultipleDrivers):
        parse_bench(
            "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\nz = BUFF(a)\n"
        )
    with pytest.raises(MultipleDrivers):
        parse_bench("INPUT(a)\nOUTPUT(a)\na = NOT(a)\n")


def test_undefined_net():
    with pytest.raises(UndefinedNet):
        parse_bench("INPUT(a)\nOUTPUT(z)\nz = AND(a, ghost)\n")


def test_duplicate_output_deduped():
    net = parse_bench("INPUT(a)\nOUTPUT(z)\nOUTPUT(z)\nz = NOT(a)\n")
    assert len(net.primary_outputs) == 1


def test_forward_references_allowed():
    net = parse_bench(
        "INPUT(a)\nOUTPUT(z)\nz = NOT(mid)\nmid = BUFF(a)\n"
    )
    order = levelize(net)
    seen = set(order.input_nets)
    for g in order.gates:
        assert all(i in seen for i in g.inputs)
        seen.add(g.output)


OUT_OF_ORDER = "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(n, b)\nn = NOT(a)\n"


def test_out_of_order_file_is_levelized_at_parse():
    from bistlab.scheduler import CampaignConfig, run_campaign
    from bistlab.simcore import PatternBatch, simulate_batch

    net = parse_bench(OUT_OF_ORDER)
    assert [g.name for g in net.gates] == ["n", "z"]
    # a=0, b=1 in lane 0; a=1, b=1 in lane 1
    batch = PatternBatch.from_scan_words(net, [0b10, 0b11])
    z = simulate_batch(net, batch).bits[net.net_id("z")]
    assert z == 0b01
    r = run_campaign(net, CampaignConfig(seed=1))
    assert r.coverage == 1.0
    # the order check is what reports a loop now, at parse time
    with pytest.raises(CombinationalCycle):
        parse_bench("INPUT(a)\nOUTPUT(z)\nz = AND(a, z)\n")


def test_ordered_file_keeps_file_order(c17):
    assert [g.name for g in c17.gates] == ["10", "11", "16", "19", "22", "23"]
    assert [g.id for g in c17.gates] == list(range(6))


def test_raw_s27_is_topological_with_dffs_last(s27_raw):
    ready = set(s27_raw.input_nets)
    ready.update(g.output for g in s27_raw.gates if g.kind == "DFF")
    kinds = [g.kind for g in s27_raw.gates]
    assert kinds[-3:] == ["DFF"] * 3 and "DFF" not in kinds[:-3]
    assert [g.id for g in s27_raw.gates] == list(range(len(kinds)))
    for g in s27_raw.gates[:-3]:
        assert all(i in ready for i in g.inputs), g.name
        ready.add(g.output)


def test_dangling_net_warns(caplog):
    with caplog.at_level(logging.WARNING):
        parse_bench("INPUT(a)\nOUTPUT(z)\nz = NOT(a)\norphan = BUFF(a)\n")
    assert any("orphan" in r.message for r in caplog.records)


def test_levelize_is_stable_and_idempotent(s27):
    once = levelize(s27)
    twice = levelize(once)
    assert [g.name for g in once.gates] == [g.name for g in twice.gates]


def test_levelize_topological_property():
    rng = random.Random(5)
    for _ in range(25):
        net = levelize(random_circuit(rng))
        ready = set(net.input_nets)
        for g in net.gates:
            assert all(i in ready for i in g.inputs)
            ready.add(g.output)


def test_cycle_detected_and_reported():
    text = (
        "INPUT(a)\nOUTPUT(z)\n"
        "x = AND(a, y)\ny = AND(a, x)\nz = BUFF(x)\n"
    )
    with pytest.raises(CombinationalCycle) as exc:
        levelize(parse_bench(text))
    assert set(exc.value.cycle) & {"x", "y"}


def test_full_scan_alignment(s27_raw):
    net = full_scan_transform(s27_raw)
    assert len(net.ppi_nets) == len(net.ppo_nets) == 3
    # DFF output G5 is driven by G10: the PPI/PPO pair must stay aligned
    names = {net.net_name(q): net.net_name(d)
             for q, d in zip(net.ppi_nets, net.ppo_nets)}
    assert names == {"G5": "G10", "G6": "G11", "G7": "G13"}
    assert not any(g.kind == "DFF" for g in net.gates)


def test_full_scan_idempotent(s27_raw):
    once = full_scan_transform(s27_raw)
    again = full_scan_transform(once)
    assert once.ppi_nets == again.ppi_nets
    assert once.ppo_nets == again.ppo_nets
    assert [g.name for g in once.gates] == [g.name for g in again.gates]
    assert again is once  # nothing to do: no copy, caches kept


def test_full_scan_levelizes_out_of_order_netlists():
    # z reads n, which the next gate drives
    late = Netlist("x", [Gate(0, "AND", (3, 1), 2, "z"),
                         Gate(1, "NOT", (0,), 3, "n")],
                   ["a", "b", "z", "n"], [0, 1], [2])
    # in order, but ids that do not match positions
    renumbered = Netlist("y", [Gate(1, "NOT", (0,), 3, "n"),
                               Gate(0, "AND", (3, 1), 2, "z")],
                         ["a", "b", "z", "n"], [0, 1], [2])
    for net in (late, renumbered):
        scanned = full_scan_transform(net)
        assert scanned is not net
        assert [(g.id, g.name) for g in scanned.gates] == [(0, "n"), (1, "z")]
        assert full_scan_transform(scanned) is scanned


def test_bench_round_trip(s27_raw):
    text = to_bench(s27_raw)
    back = parse_bench(text, name=s27_raw.name)
    assert [s27_raw.net_name(i) for i in s27_raw.primary_inputs] == \
           [back.net_name(i) for i in back.primary_inputs]
    assert sorted((g.name, g.kind) for g in s27_raw.gates) == \
           sorted((g.name, g.kind) for g in back.gates)
    # and the scan transform of both agrees
    a, b = full_scan_transform(s27_raw), full_scan_transform(back)
    assert circuit_profile(a) == circuit_profile(b)


def test_round_trip_random_circuits():
    rng = random.Random(11)
    for _ in range(20):
        net = random_circuit(rng)
        back = parse_bench(to_bench(net), name=net.name)
        assert len(back.gates) == len(net.gates)
        assert len(back.primary_outputs) == len(net.primary_outputs)


def test_resolver_prefers_literal_path(tmp_path):
    p = tmp_path / "mini.bench"
    p.write_text("INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n")
    assert resolve_bench_path(str(p)) == str(p)


def test_resolver_bench_dir_and_suffix(tmp_path, monkeypatch):
    p = tmp_path / "mini.bench"
    p.write_text("INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n")
    monkeypatch.setenv("BENCH_DIR", str(tmp_path))
    assert resolve_bench_path("mini") == str(p)
    assert resolve_bench_path("mini.bench") == str(p)
    net = load_bench("mini")
    assert net.name == "mini"


def test_resolver_bundled_fallback(monkeypatch):
    monkeypatch.delenv("BENCH_DIR", raising=False)
    path = resolve_bench_path("s27")
    assert os.path.basename(path) == "s27.bench"


def test_resolver_error_lists_attempts(monkeypatch):
    monkeypatch.delenv("BENCH_DIR", raising=False)
    with pytest.raises(FileNotFoundError) as exc:
        resolve_bench_path("never_heard_of_it")
    assert "never_heard_of_it" in str(exc.value)


def test_fanout_table(c17):
    fan = c17.fanout()
    # net 11 (NAND of 3,6) feeds gates 16 and 19
    nid = c17.net_id("11")
    readers = {c17.gates[pos].name for pos, _ in fan[nid]}
    assert readers == {"16", "19"}

"""Each gate kind's rule, as every layer derives it from GATE_RULES.

Per kind, at arity 1 for NOT and BUFF and arities 2 and 3 otherwise:
three-valued evaluation against the exhaustive oracle, controllability
costs against fixed values, and collapsing classes against the
equivalences written out below.
"""

import itertools

import pytest

from bistlab.atpg import _controllability, _eval3
from bistlab.faultsim import FaultSet, collapse_faults, enumerate_faults
from bistlab.netlist import GATE_RULES, parse_bench

from oracles import eval_nets

CASES = [(kind, n) for kind in GATE_RULES
         for n in ((1,) if kind in ("NOT", "BUFF") else (2, 3))]


def _one_gate(kind, n):
    ins = [f"i{j}" for j in range(n)]
    text = "".join(f"INPUT({i})\n" for i in ins)
    text += f"OUTPUT(z)\nz = {kind}({', '.join(ins)})\n"
    return parse_bench(text)


@pytest.mark.parametrize("kind,n", CASES)
def test_eval3_is_exact_ternary_value(kind, n):
    net = _one_gate(kind, n)
    z = net.net_id("z")
    for vals in itertools.product((0, 1, None), repeat=n):
        outs = {eval_nets(net, dict(zip(net.input_nets, fill)))[z]
                for fill in itertools.product(
                    *[(0, 1) if v is None else (v,) for v in vals])}
        exact = outs.pop() if len(outs) == 1 else None
        assert _eval3(kind, list(vals)) == exact, vals


# (cc0, cc1) of z: alone on primary inputs, then reading a = AND(p, q),
# b = NOR(p, q, r) and c = XOR(q, r), whose (cc0, cc1) are (2, 3),
# (2, 4) and (3, 4); the one-input kinds read b.
CONTROLLABILITY = {
    ("AND", 2): ((2, 3), (3, 8)),
    ("AND", 3): ((2, 4), (3, 12)),
    ("NAND", 2): ((3, 2), (8, 3)),
    ("NAND", 3): ((4, 2), (12, 3)),
    ("OR", 2): ((3, 2), (5, 4)),
    ("OR", 3): ((4, 2), (8, 4)),
    ("NOR", 2): ((2, 3), (4, 5)),
    ("NOR", 3): ((2, 4), (4, 8)),
    ("XOR", 2): ((3, 4), (5, 6)),
    ("XOR", 3): ((4, 5), (8, 9)),
    ("XNOR", 2): ((3, 4), (5, 6)),
    ("XNOR", 3): ((4, 5), (8, 9)),
    ("NOT", 1): ((2, 2), (5, 3)),
    ("BUFF", 1): ((2, 2), (3, 5)),
}

FRONT = """\
INPUT(p)
INPUT(q)
INPUT(r)
OUTPUT(z)
a = AND(p, q)
b = NOR(p, q, r)
c = XOR(q, r)
"""


@pytest.mark.parametrize("kind,n", CASES)
def test_controllability(kind, n):
    alone, behind = CONTROLLABILITY[kind, n]
    ins = ("b",) if n == 1 else ("a", "b", "c")[:n]
    for net, want in ((_one_gate(kind, n), alone),
                      (parse_bench(FRONT + f"z = {kind}({', '.join(ins)})\n"),
                       behind)):
        cc0, cc1 = _controllability(net)
        z = net.net_id("z")
        assert (cc0[z], cc1[z]) == want


# input stuck value -> equivalent output stuck value
EQUIVALENCES = {
    "AND": ((0, 0),),
    "NAND": ((0, 1),),
    "OR": ((1, 1),),
    "NOR": ((1, 0),),
    "XOR": (),
    "XNOR": (),
    "NOT": ((0, 1), (1, 0)),
    "BUFF": ((0, 0), (1, 1)),
}


@pytest.mark.parametrize("kind,n", CASES)
def test_collapse_classes(kind, n):
    net = _one_gate(kind, n)
    universe = enumerate_faults(net).all
    want = {frozenset([f]) for f in universe}
    for sv, ov in EQUIVALENCES[kind]:
        cls = frozenset(f for f in universe
                        if (f.branch is not None and f.stuck == sv)
                        or (f.branch is None and f.stuck == ov))
        want = {c for c in want if not c <= cls} | {cls}
    # a fault's class is the set of faults whose detection marks the
    # same representative
    rep_of = {}
    for f in universe:
        probe = FaultSet(universe)
        probe.mark_detected(probe.index_of(f), 0)
        out = collapse_faults(probe, net)
        [rep] = [r for i, r in enumerate(out.all) if out.detected[i]]
        rep_of[f] = rep
    got = {frozenset(f for f in universe if rep_of[f] == r)
           for r in set(rep_of.values())}
    assert got == want

"""Each gate kind's rule, as every layer derives it from GATE_RULES.

Per kind, at arity 1 for NOT and BUFF and arities 2 and 3 otherwise:
PODEM's pair-code gate step (good and faulty halves over {0, 1, X})
against the exhaustive oracle, controllability costs against fixed
values, and collapsing classes against the equivalences written out
below.
"""

import itertools

import pytest

from bistlab.atpg import _Podem, _controllability
from bistlab.faultsim import Fault, FaultSet, collapse_faults, enumerate_faults
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
    """PODEM's three-valued gate step, on pair codes: each half of the
    output is the exact ternary value of that half of the inputs."""
    net = _one_gate(kind, n)
    z = net.net_id("z")
    exact = {}  # input halves over {0, 1, 2} -> exact output half
    for halves in itertools.product((0, 1, 2), repeat=n):
        outs = {eval_nets(net, dict(zip(net.input_nets, fill)))[z]
                for fill in itertools.product(
                    *[(0, 1) if h == 2 else (h,) for h in halves])}
        exact[halves] = outs.pop() if len(outs) == 1 else 2
    # an input stem fault leaves the gate itself on the plain step
    podem = _Podem(net, Fault(net.input_nets[0], 0), 0, None)
    for codes in itertools.product(range(9), repeat=n):
        val = [8] * net.n_nets
        for nid, code in zip(net.input_nets, codes):
            val[nid] = code
        podem._imply({}, None, val)
        assert val[z] // 3 == exact[tuple(c // 3 for c in codes)], codes
        assert val[z] % 3 == exact[tuple(c % 3 for c in codes)], codes


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
    # a fault's class is the set of faults it collapses to one with
    got = {frozenset(g for g in universe
                     if len(collapse_faults(FaultSet((f, g)), net)) == 1)
           for f in universe}
    assert got == want

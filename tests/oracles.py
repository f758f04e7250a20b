"""Slow reference implementations the real code is checked against.

Everything here is deliberately naive and shares no machinery with the
package: circuit evaluation is a value-dictionary fixpoint, fault
injection edits the evaluation rather than propagating difference
cones, and the register oracle shifts explicit bit lists.
"""

import functools
import itertools


def gate_value(kind, vals):
    """One gate's 0/1 output from its 0/1 inputs."""
    if kind == "AND":
        return int(all(vals))
    if kind == "NAND":
        return int(not all(vals))
    if kind == "OR":
        return int(any(vals))
    if kind == "NOR":
        return int(not any(vals))
    if kind == "XOR":
        return sum(vals) % 2
    if kind == "XNOR":
        return (sum(vals) + 1) % 2
    if kind == "NOT":
        return 1 - vals[0]
    if kind in ("BUFF", "BUF"):
        return vals[0]
    raise ValueError(f"oracle cannot evaluate {kind}")


@functools.lru_cache(maxsize=None)
def gate_value3(kind, vals):
    """One gate's output over {0, 1, None}, None for X: the value every
    fill of the X inputs agrees on, else None. vals is a tuple."""
    outs = {gate_value(kind, fill) for fill in itertools.product(
        *[(0, 1) if v is None else (v,) for v in vals])}
    return outs.pop() if len(outs) == 1 else None


def eval_nets(net, assign, fault=None):
    """Evaluate every net as 0/1; assign maps input net id -> value.

    fault is a faultsim.Fault or None. A stem fault forces the net's
    settled value everywhere; a branch fault forces it only in the view
    of the reading gate's pin.
    """
    values = {}
    for nid in net.input_nets:
        values[nid] = assign[nid]
    if fault is not None and fault.branch is None and fault.net in values:
        values[fault.net] = fault.stuck

    def gate_inputs(pos, g):
        vals = []
        for pin, nid in enumerate(g.inputs):
            if nid not in values:
                return None
            v = values[nid]
            if fault is not None and fault.branch == (pos, pin):
                v = fault.stuck
            vals.append(v)
        return vals

    remaining = [(pos, g) for pos, g in enumerate(net.gates)
                 if g.kind != "DFF"]
    for _ in range(len(remaining) + 1):
        progressed = False
        still = []
        for pos, g in remaining:
            vals = gate_inputs(pos, g)
            if vals is None:
                still.append((pos, g))
                continue
            v = gate_value(g.kind, vals)
            if fault is not None and fault.branch is None \
                    and g.output == fault.net:
                v = fault.stuck
            values[g.output] = v
            progressed = True
        remaining = still
        if not remaining:
            break
        if not progressed:
            raise ValueError("combinational loop in oracle evaluation")
    return values


def sim_pair(net, assign, fault):
    """Good and faulty machines under a partial assignment, as PODEM's
    three-valued implication sees them: (good, faulty) lists indexed by
    net id, None for X.

    assign maps some input net ids to 0/1; the rest are X. Each gate
    takes gate_value3 of its inputs, so X is pessimistic only where
    reconvergence hides a constant. An input stem fault is stuck only
    once its input is assigned; otherwise faults inject as in eval_nets.
    """
    good = {nid: assign.get(nid) for nid in net.input_nets}
    faulty = dict(good)
    if fault.branch is None and assign.get(fault.net) is not None:
        faulty[fault.net] = fault.stuck
    remaining = list(enumerate(net.gates))
    while remaining:
        still = []
        for pos, g in remaining:
            if any(nid not in good for nid in g.inputs):
                still.append((pos, g))
                continue
            gvals = tuple(good[i] for i in g.inputs)
            good[g.output] = gate_value3(g.kind, gvals)
            fvals = tuple(fault.stuck if fault.branch == (pos, pin)
                          else faulty[i] for pin, i in enumerate(g.inputs))
            faulty[g.output] = fault.stuck if fault.branch is None and \
                g.output == fault.net else gate_value3(g.kind, fvals)
        if len(still) == len(remaining):
            raise ValueError("combinational loop in oracle evaluation")
        remaining = still
    return ([good.get(nid) for nid in range(net.n_nets)],
            [faulty.get(nid) for nid in range(net.n_nets)])


def response_bits(net, assign, fault=None):
    vals = eval_nets(net, assign, fault)
    return tuple(vals[nid] for nid in net.output_nets)


def detects(net, assign, fault):
    """Does this one assignment expose the fault at any output?"""
    return response_bits(net, assign) != response_bits(net, assign, fault)


def assign_from_word(net, word):
    return {nid: (word >> j) & 1
            for j, nid in enumerate(net.input_nets)}


def detecting_words(net, fault):
    """Every input word that exposes the fault; exhaustive."""
    width = len(net.input_nets)
    hits = []
    for word in range(1 << width):
        if detects(net, assign_from_word(net, word), fault):
            hits.append(word)
    return hits


def lfsr_orbit(degree, exponents, seed_bits):
    """Orbit of a Fibonacci-style LFSR as explicit bit lists.

    exponents are the nonzero polynomial terms including degree and 0.
    State is a list of bits, index 0 first; each step feeds the parity
    of the tapped cells into the top cell while everything shifts down.
    Returns the sequence of states until the seed repeats.
    """
    taps = [e for e in exponents if e != degree]
    state = list(seed_bits)
    seen = [tuple(state)]
    while True:
        fb = 0
        for t in taps:
            fb ^= state[t]
        state = state[1:] + [fb]
        if tuple(state) == seen[0]:
            return seen
        seen.append(tuple(state))
        if len(seen) > (1 << degree):
            raise AssertionError("orbit longer than the state space")

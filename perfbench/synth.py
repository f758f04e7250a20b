"""Seeded synthetic .bench circuits shaped like the published rows.

The published ISCAS'89 netlists are not bundled, so the benchmark times
stand-in circuits whose scan chain (primary inputs plus flip-flops)
matches a row of ``bistlab/data/reference_rows.json``. They are for
timing only and say nothing about the published cycle counts.

Naive random logic is mostly redundant: reconvergent AND/OR trees hide
faults from random patterns and stall PODEM. The generator keeps
detectability high by

* bounding fan-in to two or three,
* drawing the other inputs of a gate from every net made so far, not
  from a window of recent ones (of the variants tried, this one left
  the fewest faults undetected by random patterns),
* making half the gates XOR/XNOR, whose inputs are always observable,
* making sure every net is read: an unread net is the first input of
  the next gate, and the nets still unread at the end are folded by
  XOR gates into the primary and pseudo primary outputs.

Two seeds drive a circuit. The structure seed fixes the gate graph;
the name seed only picks the net names written into the text.
"""

import random

_KINDS = ("AND", "NAND", "OR", "NOR", "XOR", "XNOR")
_WEIGHTS = (1, 1, 1, 1, 2, 2)


def _names(count, rng):
    """count distinct short net names in a seeded order."""
    names = set()
    while len(names) < count:
        names.add("n" + "".join(rng.choice("abcdefghjkmnpqrstuvwxyz0123456789")
                                for _ in range(6)))
    return rng.sample(sorted(names), count)


def generate(pis, ffs, pos, gates, structure_seed, name_seed=0,
             name="synth"):
    """.bench text with pis inputs, ffs scan cells, pos outputs and
    ``gates`` combinational gates."""
    rng = random.Random(structure_seed)
    n_src = pis + ffs
    outputs = pos + ffs
    rows = []  # (kind, input nets); gate k drives net n_src + k
    unread = list(range(n_src))
    # stop once the XOR folding below brings the total to `gates`
    while len(rows) + max(0, len(unread) - outputs) < gates:
        n_nets = n_src + len(rows)
        ins = [unread.pop(rng.randrange(len(unread))) if unread
               else rng.randrange(n_nets)]
        width = 3 if rng.random() < 0.1 else 2
        while len(ins) < width:
            cand = rng.randrange(n_nets)
            if cand not in ins:
                ins.append(cand)
                if cand in unread:
                    unread.remove(cand)
        rows.append((rng.choices(_KINDS, _WEIGHTS)[0], tuple(ins)))
        unread.append(n_nets)
    # fold the unread nets into exactly `outputs` observation points
    rng.shuffle(unread)
    while len(unread) > outputs:
        a, b = unread.pop(), unread.pop()
        unread.insert(0, n_src + len(rows))
        rows.append((rng.choice(("XOR", "XNOR")), (a, b)))
    spare = [n for n in range(n_src, n_src + len(rows)) if n not in unread]
    observed = unread + rng.sample(spare, outputs - len(unread))
    rng.shuffle(observed)
    po_nets, d_nets = observed[:pos], observed[pos:]

    label = _names(n_src + len(rows), random.Random(name_seed))
    lines = [f"# {name}: {pis} PI, {ffs} DFF, {pos} PO, {len(rows)} gates"]
    lines += [f"INPUT({label[i]})" for i in range(pis)]
    lines += [f"OUTPUT({label[i]})" for i in po_nets]
    lines += [f"{label[pis + k]} = DFF({label[d]})" for k, d in enumerate(d_nets)]
    for k, (kind, ins) in enumerate(rows):
        args = ", ".join(label[i] for i in ins)
        lines.append(f"{label[n_src + k]} = {kind}({args})")
    return "\n".join(lines) + "\n"


def vectors(width, count, seed):
    """count seeded scan vectors over {0, 1, x}, one per line."""
    rng = random.Random(seed)
    return "".join("".join(rng.choice("01x") for _ in range(width)) + "\n"
                   for _ in range(count))

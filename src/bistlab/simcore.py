"""Two-valued logic simulation of the combinational core.

simulate_batch packs one pattern per bit lane into plain Python ints, so
a batch of W patterns costs one pass over the gates regardless of W.
Two-valued gate semantics live in _evaluate (the good machine) and in
faultsim's cone propagation, nowhere else; both are tested against the
independent reference in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass


class WidthMismatch(ValueError):
    """Batch inputs do not line up with the netlist's input nets."""


@dataclass
class PatternBatch:
    """width lanes of input values; bits[net_id] holds lane i at bit i."""
    width: int
    bits: dict

    @classmethod
    def from_scan_words(cls, net, words):
        """Pack scan words (bit j = j-th input net, PIs then PPIs)."""
        inputs = net.input_nets
        bits = {nid: 0 for nid in inputs}
        for lane, w in enumerate(words):
            if w >> len(inputs):
                raise WidthMismatch(
                    f"scan word {w:#x} wider than {len(inputs)} inputs")
            for j, nid in enumerate(inputs):
                bits[nid] |= ((w >> j) & 1) << lane
        return cls(len(words), bits)


@dataclass
class ResponseBatch:
    """Observed values per lane; bits[net_id] over POs then PPOs."""
    width: int
    bits: dict

    def scan_words(self, net):
        """Repack as response words (bit j = j-th output net)."""
        return [_response_word(net, self.bits, lane)
                for lane in range(self.width)]


def _evaluate(net, batch):
    """Forward pass; returns lane-mask values for every net id."""
    full = (1 << batch.width) - 1
    values = [0] * net.n_nets
    for nid, lanes in batch.bits.items():
        values[nid] = lanes
    for g in net.gates:
        ins = g.inputs
        k = g.kind
        if k == "AND" or k == "NAND":
            v = full
            for i in ins:
                v &= values[i]
            if k == "NAND":
                v ^= full
        elif k == "OR" or k == "NOR":
            v = 0
            for i in ins:
                v |= values[i]
            if k == "NOR":
                v ^= full
        elif k == "XOR" or k == "XNOR":
            v = 0
            for i in ins:
                v ^= values[i]
            if k == "XNOR":
                v ^= full
        elif k == "NOT":
            v = values[ins[0]] ^ full
        elif k == "BUFF":
            v = values[ins[0]]
        else:
            raise WidthMismatch(f"cannot simulate sequential element {g.name}; "
                                "run full_scan_transform first")
        values[g.output] = v
    return values


def _response_word(net, values, lane=0):
    """Response word of one lane of an evaluation (bit j = j-th output net)."""
    w = 0
    for j, nid in enumerate(net.output_nets):
        w |= (values[nid] >> lane & 1) << j
    return w


def simulate_batch(net, batch):
    """Evaluate all lanes at once. Batch keys must equal the input nets."""
    if set(batch.bits) != set(net.input_nets):
        missing = set(net.input_nets) - set(batch.bits)
        extra = set(batch.bits) - set(net.input_nets)
        raise WidthMismatch(f"batch inputs do not match netlist inputs "
                            f"(missing {len(missing)}, extra {len(extra)})")
    if batch.width < 1:
        raise WidthMismatch("empty batch")
    values = _evaluate(net, batch)
    return ResponseBatch(batch.width, {nid: values[nid] for nid in net.output_nets})

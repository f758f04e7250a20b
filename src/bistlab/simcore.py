"""Two-valued logic simulation of the combinational core.

simulate_batch packs one pattern per bit lane into plain Python ints, so
a batch of W patterns costs one pass over the gates regardless of W.

The good machine is compiled code. On a netlist's first _evaluate, the
gate list is turned into straight-line Python, one statement per gate
read off netlist.GATE_RULES (``v[9] = (v[3] & v[5]) ^ full``), and
exec'd in chunks of _CHUNK gates. The source holds only integer net ids
and operators: no name from a .bench file reaches exec. Compiling in
chunks keeps the compiler's transient memory small on large circuits.
The chunks are cached on the netlist and dropped when it is pickled.

Scan words and lane masks are transposed a whole batch at a time: the
words are written out as one bit string and each column is read back
with a strided slice and int(..., 2), so neither packing nor unpacking
takes a Python step per bit. Both evaluators, this one and faultsim's
cone propagation, are tested against the independent reference in
tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

from .netlist import GATE_RULES

_CHUNK = 128  # gates per compiled function
_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


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
        n = len(inputs)
        for w in words:
            if w >> n:
                raise WidthMismatch(f"scan word {w:#x} wider than {n} inputs")
        fmt = f"0{n}b"
        if len(words) == 1:
            # one lane: each input's value is its own bit of the word
            bits = format(words[0], fmt)[::-1].encode().translate(_TO_BITS)
            return cls(1, dict(zip(inputs, bits)))
        if not words:
            return cls(0, dict.fromkeys(inputs, 0))
        # row i is lane W-1-i, so column j read top down is input j's
        # lane mask, most significant lane first
        rows = "".join([format(w, fmt) for w in reversed(words)])
        cols = [int(rows[k::n], 2) for k in range(n - 1, -1, -1)]
        return cls(len(words), dict(zip(inputs, cols)))


@dataclass
class ResponseBatch:
    """Observed values per lane; bits[net_id] over POs then PPOs."""
    width: int
    bits: dict

    def scan_words(self, net):
        """Repack as response words (bit j = j-th output net)."""
        return _response_words(net, self.bits, self.width)


def _gate_source(g):
    """One statement evaluating gate g into v, as plain Python."""
    ctrl, inv = GATE_RULES[g.kind]
    op = " ^ " if ctrl is None else " | " if ctrl else " & "
    expr = op.join(f"v[{i}]" for i in g.inputs) or ("full" if ctrl == 0 else "0")
    if inv:
        expr = f"({expr}) ^ full"
    return f"    v[{g.output}] = {expr}\n"


def _compile(net):
    """The netlist's gates as compiled chunks f(v, full), in gate order."""
    for g in net.gates:
        if g.kind not in GATE_RULES:
            raise WidthMismatch(f"cannot simulate sequential element {g.name}; "
                                "run full_scan_transform first")
    chunks = []
    for start in range(0, len(net.gates), _CHUNK):
        src = "def chunk(v, full):\n" + "".join(
            _gate_source(g) for g in net.gates[start:start + _CHUNK])
        scope = {}
        exec(compile(src, "<bistlab netlist kernel>", "exec"), scope)
        chunks.append(scope["chunk"])
    return tuple(chunks)


def _evaluate(net, batch):
    """Forward pass; returns lane-mask values for every net id.

    An input missing from the batch, and any undriven net, reads 0.
    """
    if net._kernel is None:
        net._kernel = _compile(net)
    full = (1 << batch.width) - 1
    values = [0] * net.n_nets
    for nid, lanes in batch.bits.items():
        values[nid] = lanes
    for chunk in net._kernel:
        chunk(values, full)
    return values


def _response_words(net, values, width):
    """Response word of every lane of an evaluation (bit j = j-th output net)."""
    rev = net.output_nets[::-1]
    if not rev:
        return [0] * width
    if width == 1:
        return [int(bytes(map(values.__getitem__, rev)).translate(_TO_DIGITS), 2)]
    # row i is output m-1-i, so lane k's column read top down is its
    # response word, most significant output first
    fmt = f"0{width}b"
    rows = "".join([format(values[nid], fmt) for nid in rev])
    return [int(rows[k::width], 2) for k in range(width - 1, -1, -1)]


def simulate_batch(net, batch):
    """Evaluate all lanes at once. Batch keys must equal the input nets."""
    if set(batch.bits) != set(net.input_nets):
        missing = set(net.input_nets) - set(batch.bits)
        extra = set(batch.bits) - set(net.input_nets)
        raise WidthMismatch(f"batch inputs do not match netlist inputs "
                            f"(missing {len(missing)}, extra {len(extra)})")
    if batch.width < 1:
        raise WidthMismatch("empty batch")
    if any(lanes >> batch.width for lanes in batch.bits.values()):
        raise WidthMismatch(f"lane masks wider than the batch's "
                            f"{batch.width} lanes")
    values = _evaluate(net, batch)
    return ResponseBatch(batch.width, {nid: values[nid] for nid in net.output_nets})

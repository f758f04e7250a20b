"""ISCAS'89 .bench netlist front end.

Parses .bench text into a gate graph with dense integer net ids, applies
the full-scan transform (flip-flops become pseudo primary inputs and
outputs), and levelizes the combinational core so the simulation engines
can evaluate gates in one forward pass. parse_bench returns every
netlist levelized, flip-flops last, so it can be simulated as it stands.

Net ids are assigned in declaration order and survive every transform;
only gate order and gate ids change when a netlist is levelized.

GATE_RULES is the one statement of what each gate kind computes: the
simulators, PODEM and fault collapsing all derive their rules from it.
"""

from __future__ import annotations

import logging
import os
import re
from dataclasses import dataclass
from importlib import resources

logger = logging.getLogger(__name__)

# Every combinational kind as (controlling value, inverted). A gate with
# controlling value c outputs c ^ inverted when any input is c, else its
# complement; a gate with None outputs the parity of its inputs, xor
# inverted. NOT and BUFF are the one-input XNOR and XOR.
GATE_RULES = {
    "AND": (0, 0),
    "NAND": (0, 1),
    "OR": (1, 0),
    "NOR": (1, 1),
    "XOR": (None, 0),
    "XNOR": (None, 1),
    "NOT": (None, 1),
    "BUFF": (None, 0),
}
ALL_KINDS = tuple(GATE_RULES) + ("DFF",)
UNARY_KINDS = ("NOT", "BUFF", "DFF")


class NetlistError(Exception):
    """Base class for netlist construction problems."""


class BenchSyntaxError(NetlistError):
    """Malformed .bench line (bad token, bad arity, unparseable shape)."""

    def __init__(self, message, line_no):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class UndefinedNet(NetlistError):
    """A net is referenced but never driven by an INPUT or a gate."""


class MultipleDrivers(NetlistError):
    """A net is driven more than once."""


class UnsupportedGate(NetlistError):
    """Gate kind outside the supported .bench vocabulary."""


class CombinationalCycle(NetlistError):
    """The combinational core contains a loop; names are on the cycle."""

    def __init__(self, cycle_names):
        super().__init__("combinational cycle: " + " -> ".join(cycle_names))
        self.cycle = list(cycle_names)


@dataclass(frozen=True)
class Gate:
    id: int
    kind: str
    inputs: tuple
    output: int
    name: str


@dataclass(frozen=True)
class CircuitProfile:
    name: str
    pis: int
    pos: int
    ppis: int
    ppos: int
    gate_count: int
    scan_length: int


class Netlist:
    """Gate graph with dense net ids. Treat instances as immutable.

    ``gates`` holds combinational gates and, before the scan transform,
    DFF elements. ``ppi_nets[i]`` and ``ppo_nets[i]`` are the output and
    input nets of the i-th removed flip-flop, kept aligned so the scan
    chain (and a .bench writer) can reconstruct the pairing.
    """

    def __init__(self, name, gates, net_names, primary_inputs,
                 primary_outputs, ppi_nets=(), ppo_nets=()):
        self.name = name
        self.gates = tuple(gates)
        self.net_names = tuple(net_names)
        self.primary_inputs = tuple(primary_inputs)
        self.primary_outputs = tuple(primary_outputs)
        self.ppi_nets = tuple(ppi_nets)
        self.ppo_nets = tuple(ppo_nets)
        self._name_to_id = {n: i for i, n in enumerate(self.net_names)}
        self._fanout = None
        self._kernel = None  # simcore's compiled evaluator, built on first use

    def __getstate__(self):
        # compiled code does not pickle; a copy compiles its own on first use
        return dict(self.__dict__, _kernel=None)

    @property
    def n_nets(self):
        return len(self.net_names)

    @property
    def input_nets(self):
        """Nets driven from outside the combinational core: PIs then PPIs."""
        return self.primary_inputs + self.ppi_nets

    @property
    def output_nets(self):
        """Observed nets: POs then PPOs."""
        return self.primary_outputs + self.ppo_nets

    def net_id(self, name):
        try:
            return self._name_to_id[name]
        except KeyError:
            raise UndefinedNet(f"no net named {name!r}") from None

    def net_name(self, nid):
        return self.net_names[nid]

    def fanout(self):
        """Map net id -> tuple of (gate position, pin index) reading it."""
        if self._fanout is None:
            table = [[] for _ in range(self.n_nets)]
            for pos, g in enumerate(self.gates):
                for pin, nid in enumerate(g.inputs):
                    table[nid].append((pos, pin))
            self._fanout = tuple(tuple(x) for x in table)
        return self._fanout


_DECL_RE = re.compile(r"^(INPUT|OUTPUT)\s*\(\s*([^\s(),=]+)\s*\)$", re.IGNORECASE)
_GATE_RE = re.compile(
    r"^([^\s=(),]+)\s*=\s*([A-Za-z][A-Za-z0-9_]*)\s*\(\s*(.*?)\s*\)$")
_BAD_NAME_CHAR = re.compile(r"[\s(),=]")


def parse_bench(text, name="circuit"):
    """Parse .bench text. Raises the specific NetlistError subclasses.

    The netlist is levelized: combinational gates in topological order
    (file order where the file allows it), flip-flops last. A
    combinational loop raises CombinationalCycle.
    """
    pi_names = []
    po_names = []
    rows = []            # (out, kind, input names, line_no)
    defined = {}         # net name -> defining line

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _DECL_RE.match(line)
        if m:
            kw, net = m.group(1).upper(), m.group(2)
            if kw == "INPUT":
                if net in defined:
                    raise MultipleDrivers(
                        f"line {line_no}: {net!r} already defined at line {defined[net]}")
                defined[net] = line_no
                pi_names.append(net)
            else:
                if net in po_names:
                    logger.warning("%s: duplicate OUTPUT(%s) at line %d ignored",
                                   name, net, line_no)
                else:
                    po_names.append(net)
            continue
        m = _GATE_RE.match(line)
        if m:
            out, kind, argtext = m.group(1), m.group(2).upper(), m.group(3)
            if kind not in ALL_KINDS:
                raise UnsupportedGate(f"line {line_no}: unknown gate kind {kind!r}")
            ins = [a.strip() for a in argtext.split(",")] if argtext.strip() else []
            if not ins or any(not a or _BAD_NAME_CHAR.search(a) for a in ins):
                raise BenchSyntaxError("malformed input list", line_no)
            if kind in UNARY_KINDS and len(ins) != 1:
                raise BenchSyntaxError(
                    f"{kind} takes exactly one input, got {len(ins)}", line_no)
            if kind not in UNARY_KINDS and len(ins) < 2:
                raise BenchSyntaxError(
                    f"{kind} needs at least two inputs, got {len(ins)}", line_no)
            if out in defined:
                raise MultipleDrivers(
                    f"line {line_no}: {out!r} already defined at line {defined[out]}")
            defined[out] = line_no
            rows.append((out, kind, tuple(ins), line_no))
            continue
        raise BenchSyntaxError(f"unrecognized line {line!r}", line_no)

    # Dense ids: PIs first, then gate outputs in file order. Inputs may
    # reference nets defined later in the file; only use after definition
    # check happens here.
    net_names = list(pi_names) + [r[0] for r in rows]
    name_to_id = {n: i for i, n in enumerate(net_names)}

    gates = []
    for pos, (out, kind, ins, line_no) in enumerate(rows):
        for a in ins:
            if a not in name_to_id:
                raise UndefinedNet(f"line {line_no}: {a!r} is never driven")
        gates.append(Gate(pos, kind, tuple(name_to_id[a] for a in ins),
                          name_to_id[out], out))

    po_ids = []
    for po in po_names:
        if po not in name_to_id:
            raise UndefinedNet(f"OUTPUT({po}) is never driven")
        po_ids.append(name_to_id[po])

    pi_ids = [name_to_id[n] for n in pi_names]

    referenced = set(po_ids)
    for g in gates:
        referenced.update(g.inputs)
    dangling = [net_names[g.output] for g in gates if g.output not in referenced]
    if dangling:
        logger.warning("%s: %d dangling internal net(s): %s", name,
                       len(dangling), ", ".join(sorted(dangling)))

    return levelize(Netlist(name, gates, net_names, pi_ids, po_ids))


def levelize(net):
    """Reorder gates topologically (stable for already-ordered input).

    DFF elements, if still present, are kept after the combinational
    gates in their original relative order; topological guarantees only
    apply to the combinational core.
    """
    import heapq

    comb = [(pos, g) for pos, g in enumerate(net.gates) if g.kind != "DFF"]
    dffs = [g for g in net.gates if g.kind == "DFF"]

    known = set(net.primary_inputs) | set(net.ppi_nets)
    known.update(g.output for g in dffs)

    producer = {g.output: pos for pos, g in comb}
    waiting = {}     # original pos -> number of unresolved inputs
    readers = {}     # producer pos -> positions waiting on it
    ready = []
    for pos, g in comb:
        need = 0
        for nid in g.inputs:
            if nid not in known and nid in producer:
                need += 1
                readers.setdefault(producer[nid], []).append(pos)
            elif nid not in known and nid not in producer:
                raise UndefinedNet(f"gate {g.name}: input net "
                                   f"{net.net_names[nid]!r} has no driver")
        waiting[pos] = need
        if need == 0:
            heapq.heappush(ready, pos)

    by_pos = dict(comb)
    order = []
    while ready:
        pos = heapq.heappop(ready)
        order.append(by_pos[pos])
        for r in readers.get(pos, ()):
            waiting[r] -= 1
            if waiting[r] == 0:
                heapq.heappush(ready, r)

    if len(order) != len(comb):
        # Walk unplaced gates along unresolved inputs until one repeats.
        placed = {g.output for g in order} | known
        stuck = {pos: g for pos, g in comb if waiting[pos] > 0}
        g = next(iter(stuck.values()))
        seen = {}
        path = []
        while g.output not in seen:
            seen[g.output] = len(path)
            path.append(net.net_names[g.output])
            nxt = next(nid for nid in g.inputs if nid not in placed)
            g = net.gates[producer[nxt]]
        cyc = path[seen[g.output]:] + [net.net_names[g.output]]
        raise CombinationalCycle(cyc)

    order.extend(dffs)
    gates = [g if g.id == i else Gate(i, g.kind, g.inputs, g.output, g.name)
             for i, g in enumerate(order)]
    return Netlist(net.name, gates, net.net_names, net.primary_inputs,
                   net.primary_outputs, net.ppi_nets, net.ppo_nets)


def full_scan_transform(net):
    """Replace every DFF with a scan cell: output net joins the pseudo
    primary inputs, input net joins the pseudo primary outputs, and the
    remaining combinational core is levelized. Idempotent: a scanned,
    levelized netlist comes back as itself, with its compiled kernel.
    """
    ready = set(net.input_nets)
    for i, g in enumerate(net.gates):
        if g.kind == "DFF" or g.id != i or not ready.issuperset(g.inputs):
            break
        ready.add(g.output)
    else:
        return net  # no DFFs; gate i has id i and reads only earlier nets
    dffs = [g for g in net.gates if g.kind == "DFF"]
    comb = [g for g in net.gates if g.kind != "DFF"]
    ppis = net.ppi_nets + tuple(g.output for g in dffs)
    ppos = net.ppo_nets + tuple(g.inputs[0] for g in dffs)
    flat = Netlist(net.name, comb, net.net_names, net.primary_inputs,
                   net.primary_outputs, ppis, ppos)
    return levelize(flat)


def circuit_profile(net):
    """Structural counts; scan_length = PIs + PPIs (test word width)."""
    return CircuitProfile(
        name=net.name,
        pis=len(net.primary_inputs),
        pos=len(net.primary_outputs),
        ppis=len(net.ppi_nets),
        ppos=len(net.ppo_nets),
        gate_count=sum(1 for g in net.gates if g.kind != "DFF"),
        scan_length=len(net.primary_inputs) + len(net.ppi_nets),
    )


def to_bench(net):
    """Emit .bench text that reparses to the same structure.

    Scan cells recorded in ppi/ppo pairs are written back as DFF lines,
    so a post-scan netlist round-trips through its pre-scan form.
    """
    lines = [f"# {net.name}"]
    lines.extend(f"INPUT({net.net_names[i]})" for i in net.primary_inputs)
    lines.append("")
    lines.extend(f"OUTPUT({net.net_names[i]})" for i in net.primary_outputs)
    lines.append("")
    for q, d in zip(net.ppi_nets, net.ppo_nets):
        lines.append(f"{net.net_names[q]} = DFF({net.net_names[d]})")
    for g in net.gates:
        args = ", ".join(net.net_names[i] for i in g.inputs)
        lines.append(f"{g.name} = {g.kind}({args})")
    return "\n".join(lines) + "\n"


def resolve_bench_path(name, bench_dir=None):
    """Find a .bench file: literal path, bench_dir, $BENCH_DIR, bundled.

    A bare circuit name like "s27" is tried with a .bench suffix too.
    """
    names = [name]
    if not name.endswith(".bench"):
        names.append(name + ".bench")
    tried = []
    for cand in names:
        tried.append(cand)
        if os.path.exists(cand):
            return cand
    for directory in (bench_dir, os.environ.get("BENCH_DIR")):
        if not directory:
            continue
        for cand in names:
            cand = os.path.join(directory, cand)
            tried.append(cand)
            if os.path.exists(cand):
                return cand
    for cand in names:
        bundled = resources.files(__package__) / "benchmarks" / os.path.basename(cand)
        tried.append(str(bundled))
        if bundled.is_file():
            return str(bundled)
    raise FileNotFoundError(f"no .bench file found; tried: {', '.join(tried)}")


def load_bench(name, bench_dir=None):
    """resolve_bench_path + parse_bench; netlist named after the file stem.

    A parse error's message is prefixed with the resolved path.
    """
    path = resolve_bench_path(name, bench_dir)
    with open(path) as fh:
        text = fh.read()
    stem = os.path.splitext(os.path.basename(path))[0]
    try:
        return parse_bench(text, name=stem)
    except NetlistError as exc:
        exc.args = (f"{path}: {exc}",)
        raise

"""Deterministic test generation.

PODEM with an explicit decision stack over the primary and pseudo
primary inputs. Five-valued reasoning is carried as (good, faulty)
pairs over {0, 1, X}: both machines are re-simulated after every
assignment, the D-frontier is read off the pair, and a backtrace guided
by simple controllability costs picks the next input to try.

Every vector PODEM returns has been confirmed by the fault simulator;
a budget overrun raises BacktrackLimit and is never folded into an
Untestable verdict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .faultsim import FaultSet, count_new_detections, fault_simulate
from .simcore import PatternBatch


class BadLength(Exception):
    """Vector line length does not match the scan word width."""


class BadChar(Exception):
    """Vector line contains a character outside {0, 1, x, X}."""


class BacktrackLimit(Exception):
    """PODEM ran out of backtracks before reaching a verdict."""

    def __init__(self, fault, budget):
        super().__init__(f"no verdict for {fault} within {budget} backtracks")
        self.fault = fault
        self.budget = budget


class PoolExhausted(Exception):
    """Every vector in the pool has been consumed."""


class _Untestable:
    def __repr__(self):
        return "UNTESTABLE"


UNTESTABLE = _Untestable()


@dataclass(frozen=True)
class TestVector:
    """Fully specified scan word; bit i drives input net i (PIs, PPIs)."""
    bits: int
    width: int
    origin: str

    def as_string(self):
        return "".join(str((self.bits >> i) & 1) for i in range(self.width))


@dataclass
class VectorPool:
    vectors: list = field(default_factory=list)
    consumed: bytearray = field(default_factory=bytearray)
    fill_seed: int = None
    detects_at_build: list = None
    backtracked: tuple = ()

    def add(self, vec):
        self.vectors.append(vec)
        self.consumed.append(0)

    def unconsumed(self):
        return [i for i in range(len(self.vectors)) if not self.consumed[i]]

    def __len__(self):
        return len(self.vectors)


def load_vectors(text, width, rng=None, origin="file"):
    """Parse one pattern per line over {0,1,x,X}; '#' starts a comment.

    Don't-care positions are filled from rng at load time so every
    stored vector is fully specified; pass a seeded rng to make the
    fill reproducible.
    """
    if rng is None:
        rng = random.Random(0)
    out = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if len(line) != width:
            raise BadLength(f"line {line_no}: got {len(line)} characters, "
                            f"scan word needs {width}")
        bits = 0
        for col, ch in enumerate(line):
            if ch == "1":
                bits |= 1 << col
            elif ch == "0":
                pass
            elif ch in "xX":
                bits |= rng.getrandbits(1) << col
            else:
                raise BadChar(f"line {line_no}, column {col + 1}: {ch!r}")
        out.append(TestVector(bits, width, origin))
    return out


def export_vectors(pool, detects=None):
    """One line per vector with a '# detects=<k>' annotation."""
    lines = []
    for i, v in enumerate(pool.vectors):
        note = ""
        if detects is not None:
            note = f"  # detects={detects[i]}"
        lines.append(v.as_string() + note)
    return "\n".join(lines) + "\n"


# three-valued gate evaluation; None is X

def _eval3(kind, vals):
    if kind == "AND" or kind == "NAND":
        v = 1
        for x in vals:
            if x == 0:
                v = 0
                break
            if x is None:
                v = None
        return v if kind == "AND" else (None if v is None else 1 - v)
    if kind == "OR" or kind == "NOR":
        v = 0
        for x in vals:
            if x == 1:
                v = 1
                break
            if x is None:
                v = None
        return v if kind == "OR" else (None if v is None else 1 - v)
    if kind == "XOR" or kind == "XNOR":
        v = 0
        for x in vals:
            if x is None:
                return None
            v ^= x
        return v if kind == "XOR" else 1 - v
    if kind == "NOT":
        return None if vals[0] is None else 1 - vals[0]
    return vals[0]  # BUFF


def _sim_pair(net, assign, fault):
    """Simulate good and faulty machines under a partial assignment."""
    good = [None] * net.n_nets
    faulty = [None] * net.n_nets
    for nid, v in assign.items():
        good[nid] = faulty[nid] = v
    if fault.branch is None and good[fault.net] is not None and \
            fault.net in set(net.input_nets):
        faulty[fault.net] = fault.stuck
    for pos, g in enumerate(net.gates):
        gvals = [good[i] for i in g.inputs]
        fvals = []
        for pin, i in enumerate(g.inputs):
            if fault.branch == (pos, pin):
                fvals.append(fault.stuck)
            else:
                fvals.append(faulty[i])
        good[g.output] = _eval3(g.kind, gvals)
        fo = _eval3(g.kind, fvals)
        if fault.branch is None and g.output == fault.net:
            fo = fault.stuck
        faulty[g.output] = fo
    return good, faulty


def _controllability(net):
    """SCOAP-flavoured cost of setting each net to 0 / 1."""
    cc0 = [1] * net.n_nets
    cc1 = [1] * net.n_nets
    for g in net.gates:
        z = g.output
        k = g.kind
        c0 = [cc0[i] for i in g.inputs]
        c1 = [cc1[i] for i in g.inputs]
        if k == "AND":
            cc1[z] = sum(c1) + 1
            cc0[z] = min(c0) + 1
        elif k == "NAND":
            cc0[z] = sum(c1) + 1
            cc1[z] = min(c0) + 1
        elif k == "OR":
            cc0[z] = sum(c0) + 1
            cc1[z] = min(c1) + 1
        elif k == "NOR":
            cc1[z] = sum(c0) + 1
            cc0[z] = min(c1) + 1
        elif k == "NOT":
            cc0[z] = c1[0] + 1
            cc1[z] = c0[0] + 1
        elif k == "BUFF":
            cc0[z] = c0[0] + 1
            cc1[z] = c1[0] + 1
        else:
            base = sum(min(a, b) for a, b in zip(c0, c1)) + 1
            cc0[z] = base
            cc1[z] = base + 1
    return cc0, cc1


_CONTROLLING = {"AND": 0, "NAND": 0, "OR": 1, "NOR": 1}
_INVERTING = {"NAND", "NOR", "NOT", "XNOR"}


class _Podem:
    def __init__(self, net, fault, budget, rng):
        self.net = net
        self.fault = fault
        self.budget = budget
        self.rng = rng
        self.inputs = net.input_nets
        self.input_set = set(self.inputs)
        self.observed = set(net.output_nets)
        self.producer = {g.output: g for g in net.gates}
        self.cc0, self.cc1 = _controllability(net)
        self.fanout = net.fanout()

    def run(self):
        assign = {}
        stack = []  # [net, value, tried_both]
        backtracks = 0
        while True:
            good, faulty = _sim_pair(self.net, assign, self.fault)
            if self._detected(good, faulty):
                return self._fill(assign)
            obj = self._objective(good, faulty)
            if obj is not None:
                pi, v = self._backtrace(*obj, good)
                assign[pi] = v
                stack.append([pi, v, False])
                continue
            # dead end: flip the deepest untried decision
            while stack and stack[-1][2]:
                pi, _, _ = stack.pop()
                del assign[pi]
            if not stack:
                return UNTESTABLE
            backtracks += 1
            if backtracks > self.budget:
                raise BacktrackLimit(self.fault, self.budget)
            top = stack[-1]
            top[1] ^= 1
            top[2] = True
            assign[top[0]] = top[1]

    def _detected(self, good, faulty):
        for nid in self.observed:
            g, f = good[nid], faulty[nid]
            if g is not None and f is not None and g != f:
                return True
        return False

    def _frontier(self, good, faulty):
        """Gates with an unresolved output and a D on some input."""
        out = []
        for pos, g in enumerate(self.net.gates):
            if good[g.output] is not None and faulty[g.output] is not None:
                continue
            for pin, i in enumerate(g.inputs):
                gv = good[i]
                fv = self.fault.stuck if self.fault.branch == (pos, pin) else faulty[i]
                if gv is not None and fv is not None and gv != fv:
                    out.append(pos)
                    break
        return out

    def _xpath(self, start_net, good, faulty):
        """Some path to an observed net is not proven fault-free yet."""
        seen = set()
        stack = [start_net]
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            g, f = good[nid], faulty[nid]
            if g is not None and f is not None and g == f:
                continue
            if nid in self.observed:
                return True
            for pos, _pin in self.fanout[nid]:
                stack.append(self.net.gates[pos].output)
        return False

    def _objective(self, good, faulty):
        """Next (net, value) goal, or None when the search must back up."""
        site = self.fault.net
        sg = good[site]
        want = 1 - self.fault.stuck
        if sg is None:
            return (site, want)
        if sg != want:
            return None  # activation impossible under current choices
        frontier = self._frontier(good, faulty)
        if not frontier:
            return None  # effect died everywhere
        # drive the frontier gate closest to an observation point
        for pos in sorted(frontier, reverse=True):
            g = self.net.gates[pos]
            if not self._xpath(g.output, good, faulty):
                continue
            ctrl = _CONTROLLING.get(g.kind)
            for i in g.inputs:
                if good[i] is None:
                    if ctrl is None:
                        return (i, 0)
                    return (i, 1 - ctrl)
        return None

    def _backtrace(self, nid, value, good):
        """Walk the objective back to an unassigned input."""
        while nid not in self.input_set:
            g = self.producer[nid]
            if g.kind in ("XOR", "XNOR"):
                parity = value ^ (1 if g.kind == "XNOR" else 0)
                pick = None
                for i in g.inputs:
                    if good[i] is None and pick is None:
                        pick = i
                    elif good[i] is not None:
                        parity ^= good[i]
                nid, value = pick, parity
                continue
            value ^= 1 if g.kind in _INVERTING else 0
            ctrl = _CONTROLLING.get(g.kind, 0)
            free = [i for i in g.inputs if good[i] is None]
            cost = self.cc0 if value == 0 else self.cc1
            if value == ctrl:
                nid = min(free, key=lambda i: cost[i])
            else:
                nid = max(free, key=lambda i: cost[i])
        return nid, value

    def _fill(self, assign):
        bits = 0
        for j, nid in enumerate(self.inputs):
            v = assign.get(nid)
            if v is None:
                v = self.rng.getrandbits(1)
            bits |= v << j
        return TestVector(bits, len(self.inputs), "podem")


def podem(net, fault, budget=10 ** 6, rng=None):
    """Generate a vector for one fault, prove it untestable, or give up.

    Returns a TestVector or UNTESTABLE; raises BacktrackLimit when the
    budget runs out. The returned vector is always re-checked with the
    fault simulator before being handed back.
    """
    if rng is None:
        rng = random.Random(0)
    result = _Podem(net, fault, budget, rng).run()
    if result is UNTESTABLE:
        return result
    probe = FaultSet([fault])
    fault_simulate(net, PatternBatch.from_scan_words(net, [result.bits]), probe)
    if not probe.detected[0]:
        raise AssertionError(f"unverified vector for {fault}; PODEM bug")
    return result


def select_best_vector(net, pool, fs):
    """Pick the unconsumed vector detecting the most live faults.

    Counts are re-simulated at call time. Ties go to the lowest index;
    if nothing detects anything the lowest-index unconsumed vector is
    returned with count 0 so the caller can decide what to do. The
    winner is marked consumed.
    """
    live = pool.unconsumed()
    if not live:
        raise PoolExhausted(f"all {len(pool)} vectors consumed")
    best_i, best_n = live[0], -1
    for i in live:
        batch = PatternBatch.from_scan_words(net, [pool.vectors[i].bits])
        n = count_new_detections(net, batch, fs)
        if n > best_n:
            best_i, best_n = i, n
    pool.consumed[best_i] = 1
    return pool.vectors[best_i], best_n


def build_deterministic_pool(net, fs, budget=10 ** 6, fill_seed=0, skip=()):
    """PODEM over every live fault, then greedy compaction.

    Detection state in fs is left untouched (the vectors have not been
    applied to anything yet); untestable verdicts ARE written back to
    fs, since redundancy is a permanent property of the circuit. Faults
    that hit the backtrack budget stay unresolved; their indices are
    recorded on the returned pool so callers can avoid retrying them
    (the search is deterministic, a retry would fail the same way).
    """
    rng = random.Random(fill_seed)
    work = FaultSet(fs.all)
    work.detected[:] = fs.detected
    work.untestable[:] = fs.untestable
    raw = []
    limited = []
    for i in range(len(work.all)):
        if work.detected[i] or work.untestable[i] or i in skip:
            continue
        try:
            verdict = podem(net, work.all[i], budget, rng)
        except BacktrackLimit:
            limited.append(i)
            continue
        if verdict is UNTESTABLE:
            fs.mark_untestable(i)
            work.mark_untestable(i)
            continue
        raw.append(verdict)
        fault_simulate(net, PatternBatch.from_scan_words(net, [verdict.bits]), work)

    # greedy fault-dropping compaction against a fresh copy
    final = FaultSet(fs.all)
    final.detected[:] = fs.detected
    final.untestable[:] = fs.untestable
    pool = VectorPool(fill_seed=fill_seed)
    detects = []
    remaining = list(raw)
    while remaining:
        best_k, best_n = 0, -1
        for k, vec in enumerate(remaining):
            batch = PatternBatch.from_scan_words(net, [vec.bits])
            n = count_new_detections(net, batch, final)
            if n > best_n:
                best_k, best_n = k, n
        if best_n <= 0:
            break
        vec = remaining.pop(best_k)
        pool.add(vec)
        detects.append(best_n)
        fault_simulate(net, PatternBatch.from_scan_words(net, [vec.bits]), final)
    pool.detects_at_build = detects
    pool.backtracked = tuple(limited)
    return pool

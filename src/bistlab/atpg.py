"""Deterministic test generation.

PODEM with an explicit decision stack over the primary and pseudo
primary inputs. Five-valued reasoning is carried in one list of pair
codes, 3 * good + faulty with each half 0, 1 or 2 (X), so D is 3 and
D-bar is 1. A gate computes both machines at once by folding its
inputs' codes through an 81-entry table for its controlling value (AND,
OR or parity), then through a 9-entry inversion table; the tables are
built from netlist.GATE_RULES at import. Both machines start from one
in-order pass over the all-X state, and after every decision, pop or
flip only the fanout cones of the changed inputs are re-implied. The
fault is injected where it sits: at its input, or in the one gate whose
output or pin it is. The D-frontier is read off the codes, and a
backtrace guided by controllability costs (also derived from
GATE_RULES) picks the next input to try.

Each pool vector is fault-simulated once, into its detection set; pool
compaction and vector ranking are one greedy pick over those sets.

Every vector PODEM returns has been confirmed by the fault simulator;
a budget overrun raises BacktrackLimit and is never folded into an
Untestable verdict.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

# count_new_detections is unused here: tests and perfbench/tracer.py read it
from .faultsim import FaultSet, count_new_detections, detection_sets, fault_simulate
from .netlist import GATE_RULES
from .simcore import PatternBatch


# PODEM's backtrack budget when the caller names none; CampaignConfig's too
DEFAULT_BACKTRACK_BUDGET = 10 ** 6


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
    sets: list = field(default_factory=list)  # detection sets, None until ranked
    detects_at_build: list = None
    backtracked: tuple = ()

    def add(self, vec, dset=None):
        self.vectors.append(vec)
        self.consumed.append(0)
        self.sets.append(dset)

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


# Pair codes 3 * good + faulty: 0, 4 and 8 are 0, 1 and X in both
# machines. _FOLD[ctrl][9 * a + b] combines two codes half by half, as
# AND (ctrl 0), OR (ctrl 1) or XOR (no controlling value).

def _fold_half(ctrl, a, b):
    if ctrl is None:
        return 2 if 2 in (a, b) else a ^ b
    if ctrl in (a, b):
        return ctrl
    return 2 if 2 in (a, b) else ctrl ^ 1


_FOLD = {ctrl: tuple(3 * _fold_half(ctrl, a // 3, b // 3)
                     + _fold_half(ctrl, a % 3, b % 3)
                     for a in range(9) for b in range(9))
         for ctrl in (0, 1, None)}
_INV = _FOLD[None][4::9]  # XOR with code 4, (1, 1)
_DIFFER = (1, 3)  # D or D-bar: known in both machines and unequal
_AGREE = (0, 4)
_KNOWN = _DIFFER + _AGREE


def _controllability(net):
    """SCOAP-flavoured cost of setting each net to 0 / 1."""
    cc0 = [1] * net.n_nets
    cc1 = [1] * net.n_nets
    for g in net.gates:
        z = g.output
        c0 = [cc0[i] for i in g.inputs]
        c1 = [cc1[i] for i in g.inputs]
        ctrl, inv = GATE_RULES[g.kind]
        if len(c0) == 1:
            v0, v1 = c0[0], c1[0]
        elif ctrl is None:
            cc0[z] = sum(min(a, b) for a, b in zip(c0, c1)) + 1
            cc1[z] = cc0[z] + 1
            continue
        elif ctrl == 0:
            v0, v1 = min(c0), sum(c1)
        else:
            v0, v1 = sum(c0), min(c1)
        if inv:
            v0, v1 = v1, v0
        cc0[z] = v0 + 1
        cc1[z] = v1 + 1
    return cc0, cc1


def _circuit_tables(net):
    """(input set, observed set, producer position map, cc0, cc1, steps).

    A gate step is (inputs, fold table, start code, _INV or None,
    output), one per gate position. The start code is the fold's
    identity, so a gate with no inputs evaluates as if none controlled it.
    All of it depends on the circuit only; build_deterministic_pool
    builds it once and shares it with every PODEM call it makes.
    """
    steps = []
    for g in net.gates:
        ctrl, inv = GATE_RULES[g.kind]
        steps.append((g.inputs, _FOLD[ctrl], 4 if ctrl == 0 else 0,
                      _INV if inv else None, g.output))
    return (set(net.input_nets), set(net.output_nets),
            {g.output: pos for pos, g in enumerate(net.gates)},
            *_controllability(net), tuple(steps))


class _Podem:
    def __init__(self, net, fault, budget, rng, tables=None):
        self.net = net
        self.fault = fault
        self.budget = budget
        self.rng = rng
        self.inputs = net.input_nets
        (self.input_set, self.observed, self.producer,
         self.cc0, self.cc1, self.steps) = tables or _circuit_tables(net)
        self.fanout = net.fanout()
        self.cone = self._cone()
        # the one gate that needs _faulted_step: the branch's reader or
        # the stem's producer (none for a stem fault on an input)
        self.faulted_pos = (fault.branch[0] if fault.branch
                            else self.producer.get(fault.net, -1))

    def _cone(self):
        """Positions, ascending, of the gates the fault effect can reach.

        Outside them good and faulty values are always equal, so no
        other gate can join the D-frontier.
        """
        fault = self.fault
        if fault.branch is None:
            stack = [pos for pos, _pin in self.fanout[fault.net]]
        else:
            stack = [fault.branch[0]]
        seen = set()
        while stack:
            pos = stack.pop()
            if pos not in seen:
                seen.add(pos)
                stack.extend(
                    p for p, _pin in self.fanout[self.net.gates[pos].output])
        return sorted(seen)

    def run(self):
        assign = {}
        stack = []  # [net, value, tried_both]
        backtracks = 0
        val = [8] * self.net.n_nets
        self._imply(assign, None, val)
        changed = []
        while True:
            if changed:
                self._imply(assign, changed, val)
                changed = []
            if self._detected(val):
                return self._fill(assign)
            obj = self._objective(val)
            if obj is not None:
                pi, v = self._backtrace(*obj, val)
                assign[pi] = v
                stack.append([pi, v, False])
                changed.append(pi)
                continue
            # dead end: flip the deepest untried decision
            while stack and stack[-1][2]:
                pi, _, _ = stack.pop()
                del assign[pi]
                changed.append(pi)
            if not stack:
                return UNTESTABLE
            backtracks += 1
            if backtracks > self.budget:
                raise BacktrackLimit(self.fault, self.budget)
            top = stack[-1]
            top[1] ^= 1
            top[2] = True
            assign[top[0]] = top[1]
            changed.append(top[0])

    def _imply(self, assign, changed, val):
        """Bring the pair codes in val up to date after inputs moved.

        changed=None evaluates every gate once, in position order: from
        all-X, that is the start state. Otherwise only the fanout cones
        of the changed inputs are re-evaluated, gates in position
        (topological) order, and a gate's readers are queued only when
        its code changed. The codes are a pure function of the
        assignment, so no undo trail is kept.
        """
        stuck = self.fault.stuck
        stem = self.fault.net if self.fault.branch is None else None
        faulted_pos = self.faulted_pos
        steps = self.steps
        fanout = self.fanout
        push, pop = heapq.heappush, heapq.heappop
        heap = list(range(len(steps))) if changed is None else []
        for nid in changed or ():
            v = assign.get(nid)
            c = 8 if v is None else 3 * v + (stuck if nid == stem else v)
            if val[nid] != c:
                val[nid] = c
                for pos, _pin in fanout[nid]:
                    push(heap, pos)
        last = -1
        while heap:
            pos = pop(heap)
            if pos == last:
                continue  # a second reader pin; readers sit later in gate order
            last = pos
            ins, fold, c, inv, out = steps[pos]
            if pos == faulted_pos:
                c = self._faulted_step(val)
            else:
                for i in ins:
                    c = fold[9 * c + val[i]]
                if inv:
                    c = inv[c]
            if c != val[out]:
                val[out] = c
                for rpos, _pin in fanout[out]:
                    push(heap, rpos)

    def _faulted_step(self, val):
        """The gate step at faulted_pos, with the fault injected: the
        stuck pin's faulty half replaced before the fold, or the output's
        faulty half after it."""
        fault = self.fault
        stuck = fault.stuck
        ins, fold, c, inv, _out = self.steps[self.faulted_pos]
        for pin, i in enumerate(ins):
            v = val[i]
            if fault.branch == (self.faulted_pos, pin):
                v += stuck - v % 3
            c = fold[9 * c + v]
        if inv:
            c = inv[c]
        if fault.branch is None:
            c += stuck - c % 3
        return c

    def _detected(self, val):
        for nid in self.observed:
            if val[nid] in _DIFFER:
                return True
        return False

    def _frontier(self, val):
        """Gates with an unresolved output and a D on some input."""
        out = []
        steps = self.steps
        branch_pos, branch_pin = self.fault.branch or (-1, -1)
        want = 1 - self.fault.stuck
        for pos in self.cone:
            ins, _fold, _start, _inv, z = steps[pos]
            if val[z] in _KNOWN:
                continue
            if pos == branch_pos and val[ins[branch_pin]] // 3 == want:
                out.append(pos)  # the stuck pin's good half opposes it
                continue
            for i in ins:
                if val[i] in _DIFFER:
                    out.append(pos)
                    break
        return out

    def _xpath(self, start_net, val):
        """Some path to an observed net is not proven fault-free yet."""
        seen = set()
        stack = [start_net]
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            if val[nid] in _AGREE:
                continue
            if nid in self.observed:
                return True
            for pos, _pin in self.fanout[nid]:
                stack.append(self.net.gates[pos].output)
        return False

    def _objective(self, val):
        """Next (net, value) goal, or None when the search must back up."""
        site = self.fault.net
        sg = val[site] // 3
        want = 1 - self.fault.stuck
        if sg == 2:
            return (site, want)
        if sg != want:
            return None  # activation impossible under current choices
        frontier = self._frontier(val)
        if not frontier:
            return None  # effect died everywhere
        # drive the frontier gate closest to an observation point
        for pos in sorted(frontier, reverse=True):
            g = self.net.gates[pos]
            if not self._xpath(g.output, val):
                continue
            ctrl = GATE_RULES[g.kind][0]
            for i in g.inputs:
                if val[i] // 3 == 2:
                    if ctrl is None:
                        return (i, 0)
                    return (i, 1 - ctrl)
        return None

    def _backtrace(self, nid, value, val):
        """Walk the objective back to an unassigned input."""
        while nid not in self.input_set:
            g = self.net.gates[self.producer[nid]]
            ctrl, inv = GATE_RULES[g.kind]
            value ^= inv
            free = [i for i in g.inputs if val[i] // 3 == 2]
            if ctrl is None:
                # parity gates, NOT and BUFF: the first free input takes
                # whatever value leaves the output at the objective
                for i in g.inputs:
                    if val[i] // 3 != 2:
                        value ^= val[i] // 3
                nid = free[0]
                continue
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


def podem(net, fault, budget=DEFAULT_BACKTRACK_BUDGET, rng=None, tables=None):
    """Generate a vector for one fault, prove it untestable, or give up.

    Returns a TestVector or UNTESTABLE; raises BacktrackLimit when the
    budget runs out. The returned vector is always re-checked with the
    fault simulator before being handed back. ``tables`` is
    ``_circuit_tables(net)``, passed in to share it across calls.
    """
    if rng is None:
        rng = random.Random(0)
    result = _Podem(net, fault, budget, rng, tables).run()
    if result is UNTESTABLE:
        return result
    probe = FaultSet([fault])
    fault_simulate(net, PatternBatch.from_scan_words(net, [result.bits]), probe)
    if not probe.detected[0]:
        raise AssertionError(f"unverified vector for {fault}; PODEM bug")
    return result


def _pick(sets, covered):
    """(k, n): sets[k] adds the most (n) faults outside covered; ties,
    even at n == 0, go to the lowest k. Compaction's and ranking's step."""
    best_k, best_n = 0, -1
    for k, dset in enumerate(sets):
        n = (dset & ~covered).bit_count()
        if n > best_n:
            best_k, best_n = k, n
    return best_k, best_n


def select_best_vector(net, pool, fs):
    """Pick the unconsumed vector detecting the most live faults.

    A vector's score is its detection set less what fs has detected
    since, so fs may only gain detections between calls. Vectors with
    no set yet are simulated here, all of them in one lane-packed call.
    Ties go to the lowest index; if nothing detects anything the
    lowest-index unconsumed vector is returned with count 0 so the
    caller can decide what to do. The winner is marked consumed.
    """
    live = pool.unconsumed()
    if not live:
        raise PoolExhausted(f"all {len(pool)} vectors consumed")
    fresh = [i for i in live if pool.sets[i] is None]
    if fresh:
        batch = PatternBatch.from_scan_words(
            net, [pool.vectors[i].bits for i in fresh])
        for i, dset in zip(fresh, detection_sets(net, batch, fs)):
            pool.sets[i] = dset
    k, best_n = _pick([pool.sets[i] for i in live],
                      int.from_bytes(fs.detected, "little"))
    best_i = live[k]
    pool.consumed[best_i] = 1
    return pool.vectors[best_i], best_n


def build_deterministic_pool(net, fs, budget=DEFAULT_BACKTRACK_BUDGET,
                             fill_seed=0):
    """PODEM over every live fault, then greedy compaction.

    Detection state in fs is left untouched (the vectors have not been
    applied to anything yet); untestable verdicts ARE written back to
    fs, since redundancy is a permanent property of the circuit. Faults
    that hit the backtrack budget stay unresolved; their indices are
    recorded on the returned pool. Compaction simulates the raw vectors
    once, into detection sets that the kept vectors carry into the
    pool for ranking.
    """
    if budget < 0:
        raise ValueError(f"backtrack budget must be >= 0, got {budget}")
    rng = random.Random(fill_seed)
    tables = _circuit_tables(net)
    work = FaultSet(fs.all)
    work.detected[:] = fs.detected
    raw = []
    limited = []
    for i in range(len(work.all)):
        if work.detected[i] or fs.untestable[i]:
            continue
        try:
            verdict = podem(net, work.all[i], budget, rng, tables)
        except BacktrackLimit:
            limited.append(i)
            continue
        if verdict is UNTESTABLE:
            fs.mark_untestable(i)
            continue
        raw.append(verdict)
        fault_simulate(net, PatternBatch.from_scan_words(net, [verdict.bits]), work)

    # greedy fault-dropping compaction over the raw vectors' sets
    sets = detection_sets(
        net, PatternBatch.from_scan_words(net, [v.bits for v in raw]), fs)
    covered = int.from_bytes(fs.detected, "little")
    pool = VectorPool(detects_at_build=[], backtracked=tuple(limited))
    while raw:
        k, best_n = _pick(sets, covered)
        if best_n <= 0:
            break
        pool.add(raw.pop(k), sets[k])
        pool.detects_at_build.append(best_n)
        covered |= sets.pop(k)
    return pool

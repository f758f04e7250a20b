"""Single stuck-at fault simulation over pattern batches.

The fault universe is the checkpoint-style uncollapsed set: both
polarities on every gate output net (stem faults) and on every gate
input connection (branch faults). Simulation is parallel-pattern,
single-fault: the good machine is evaluated once per batch, then each
live fault propagates only through its cone of influence, lane masks in
plain ints. Gate rules, in propagation and in collapsing, come from
netlist.GATE_RULES. Detection means a difference at any PO or PPO.
Detected faults are dropped: fault_simulate and count_new_detections
share one fault loop (_detections) that skips them: bytearray.find over
the detected flags jumps from one live fault to the next, so a dropped
fault costs no Python-level step. A caller that already holds the
batch's good values passes them in (good=). A caller that also needs
the faulty machines passes a dict (effects=): fault_simulate stores in
it the faulty net values of every fault it marks detected, so the
signature overlay reads those faults' response diffs instead of walking
their cones a second time.

Injection is lane-masked: _fault_effect forces the fault only in the
lanes it is given. Over all lanes that is ordinary parallel-pattern
simulation; over one lane, the other lanes never diverge and the cone
walk visits the same gates as a width-1 call. _faulty_responses uses
that to answer several (pattern, fault) pairs, each in its own lane,
from one good-machine evaluation and one unpacking of all lanes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .netlist import GATE_RULES
from .simcore import PatternBatch, _evaluate, _response_words


@dataclass(frozen=True)
class Fault:
    """Stuck-at fault. branch is None for a stem, else (gate_pos, pin)."""
    net: int
    stuck: int
    branch: tuple = None

    def sort_key(self):
        b = (-1, -1) if self.branch is None else self.branch
        return (self.net, 0 if self.branch is None else 1, b, self.stuck)


class FaultSet:
    """Fault list plus detection bookkeeping. Single writer at a time.

    detected[i] flips to 1 at most once; detector maps fault index to
    the global index of the first detecting pattern. untestable[i] is
    set by test generation when a fault is proven redundant.
    """

    def __init__(self, faults):
        self.all = tuple(faults)
        self.detected = bytearray(len(self.all))
        self.untestable = bytearray(len(self.all))
        self.detector = {}
        self._index = {f: i for i, f in enumerate(self.all)}

    def __len__(self):
        return len(self.all)

    def index_of(self, fault):
        return self._index[fault]

    def mark_detected(self, i, pattern_idx):
        if not self.detected[i]:
            self.detected[i] = 1
            self.detector[i] = pattern_idx

    def mark_untestable(self, i):
        self.untestable[i] = 1

    def detected_count(self):
        return self.detected.count(1)

    def untestable_count(self):
        return self.untestable.count(1)

    def coverage(self):
        """Detected fraction of the whole set."""
        return self.detected_count() / len(self.all) if self.all else 1.0

    def testable_coverage(self):
        """Detected fraction of faults not proven untestable."""
        live = len(self.all) - self.untestable_count()
        return self.detected_count() / live if live else 1.0


def enumerate_faults(net):
    """Uncollapsed universe in deterministic gate order."""
    faults = []
    for pos, g in enumerate(net.gates):
        for pin, nid in enumerate(g.inputs):
            faults.append(Fault(nid, 0, (pos, pin)))
            faults.append(Fault(nid, 1, (pos, pin)))
        faults.append(Fault(g.output, 0))
        faults.append(Fault(g.output, 1))
    return FaultSet(faults)


def collapse_faults(fs, net):
    """Structural equivalence collapsing.

    Classes are built over the full universe (controlling-input rules
    plus stem/branch identity on unobserved single-reader nets), then
    each fault in fs maps to its class representative. Idempotent.
    """
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for pos, g in enumerate(net.gates):
        ctrl, inv = GATE_RULES[g.kind]
        if len(g.inputs) == 1:
            # a one-input gate passes either stuck value through
            pairs = ((0, inv), (1, 1 ^ inv))
        elif ctrl is None:
            pairs = ()
        else:
            # a stuck-at-controlling input forces the output
            pairs = ((ctrl, ctrl ^ inv),)
        for pin, nid in enumerate(g.inputs):
            for sv, ov in pairs:
                union(Fault(nid, sv, (pos, pin)), Fault(g.output, ov))

    observed = set(net.output_nets)
    fanout = net.fanout()
    for g in net.gates:
        nid = g.output
        if nid not in observed and len(fanout[nid]) == 1:
            pos, pin = fanout[nid][0]
            union(Fault(nid, 0), Fault(nid, 0, (pos, pin)))
            union(Fault(nid, 1), Fault(nid, 1, (pos, pin)))

    classes = {}
    for f in fs.all:
        classes.setdefault(find(f), []).append(f)
    reps = sorted((min(members, key=Fault.sort_key) for members in classes.values()),
                  key=Fault.sort_key)
    out = FaultSet(reps)
    for root, members in classes.items():
        rep = min(members, key=Fault.sort_key)
        hits = [fs.detector[fs.index_of(m)] for m in members
                if fs.detected[fs.index_of(m)]]
        i = out.index_of(rep)
        if hits:
            out.mark_detected(i, min(hits))
        if all(fs.untestable[fs.index_of(m)] for m in members):
            out.mark_untestable(i)
    return out


def _live_indices(done, skip=None):
    """Ascending i with done[i] == 0 (and skip[i] == 0), found at C speed.

    done is re-read on every step, so flags set while the caller holds
    index i (at i or beyond) are honoured, exactly as a plain index
    walk would.
    """
    i = done.find(0)
    while i >= 0:
        if skip is None or not skip[i]:
            yield i
        i = done.find(0, i + 1)


def _fault_effect(net, good, full, fault, fanout, observed, lanes):
    """Propagate one fault through its cone, injected in `lanes` only.

    Returns (det_mask, fval): lanes where any observed net differs, and
    the faulty values of every net that diverged. Lanes outside `lanes`
    keep their good values; with lanes == full every lane is faulty.
    """
    gates = net.gates
    rules = GATE_RULES
    site = good[fault.net]
    forced = site | lanes if fault.stuck else site & ~lanes
    if forced == site:
        return 0, {}
    fval = {}
    det = 0
    heap = []
    seen = set()

    def push(pos):
        if pos not in seen:
            seen.add(pos)
            heapq.heappush(heap, pos)

    if fault.branch is None:
        fval[fault.net] = forced
        if fault.net in observed:
            det |= forced ^ site
        for pos, _pin in fanout[fault.net]:
            push(pos)
    else:
        push(fault.branch[0])

    while heap:
        pos = heapq.heappop(heap)
        g = gates[pos]
        ctrl, inv = rules[g.kind]
        vals = []
        for pin, nid in enumerate(g.inputs):
            if fault.branch == (pos, pin):
                vals.append(forced)
            else:
                vals.append(fval.get(nid, good[nid]))
        if ctrl is None:
            v = 0
            for x in vals:
                v ^= x
        elif ctrl:
            v = 0
            for x in vals:
                v |= x
        else:
            v = full
            for x in vals:
                v &= x
        if inv:
            v ^= full
        if v != good[g.output]:
            fval[g.output] = v
            if g.output in observed:
                det |= v ^ good[g.output]
            for rpos, _pin in fanout[g.output]:
                push(rpos)
    return det, fval


def _detections(net, batch, fs, good=None):
    """Undetected faults the batch exposes: (index, detecting lanes, fval).

    The one fault loop behind fault_simulate and count_new_detections.
    good, when given, is _evaluate(net, batch); else it is computed
    here, so the good machine is evaluated at most once per call.
    """
    if good is None:
        good = _evaluate(net, batch)
    full = (1 << batch.width) - 1
    observed = set(net.output_nets)
    fanout = net.fanout()
    faults = fs.all
    for i in _live_indices(fs.detected):
        det, fval = _fault_effect(net, good, full, faults[i], fanout, observed,
                                  full)
        if det:
            yield i, det, fval


def fault_simulate(net, batch, fs, pattern_base=0, good=None, effects=None):
    """Simulate every undetected fault against the batch.

    Updates fs in place and returns per-lane newly-detected counts;
    when several lanes detect the same fault the earliest lane claims
    it. pattern_base is added to the lane index for detector records.
    good optionally supplies the batch's good values (_evaluate's
    result) so a caller that needs them too evaluates only once.
    effects, when a dict, receives for each fault index this call marks
    detected the faulty values of every net that diverged (a net id ->
    lane mask dict, as _fault_effect returns it). Every other fault
    that was undetected on entry was walked and changed no observed net.
    """
    counts = [0] * batch.width
    for i, det, fval in _detections(net, batch, fs, good):
        lane = (det & -det).bit_length() - 1
        fs.mark_detected(i, pattern_base + lane)
        counts[lane] += 1
        if effects is not None:
            effects[i] = fval
    return counts


def count_new_detections(net, batch, fs):
    """Per-lane counts of currently undetected faults each lane detects.

    Lanes count independently: a fault detected by several lanes counts
    once in each of them, so lane i holds what a width-1 call on lane i
    alone would return. Pure query: fs is not modified.
    """
    counts = [0] * batch.width
    for _i, det, _fval in _detections(net, batch, fs):
        while det:
            low = det & -det
            counts[low.bit_length() - 1] += 1
            det ^= low
    return counts


def _diff_word(net, fval):
    """Response bits a one-lane fault flips: bit j set if net j diverged.

    fval is _fault_effect's, for a fault injected in a single lane, so
    every net in it differs from the good machine in that lane alone.
    Bit j is the j-th output net (POs then PPOs), as in a response word.
    """
    diff = 0
    for j, nid in enumerate(net.output_nets):
        if nid in fval:
            diff |= 1 << j
    return diff


def _response_diff(net, good, fault, observed, full=1, lane=0):
    """Observed bits one fault flips in one lane of an evaluation.

    The fault is injected in that lane only; the default is a width-1
    evaluation.
    """
    det, fval = _fault_effect(net, good, full, fault, net.fanout(), observed,
                              1 << lane)
    return _diff_word(net, fval) if det else 0


def _faulty_responses(net, words, faults):
    """Faulty response words: lane k answers words[k] with faults[k].

    One good-machine evaluation serves every pair; each fault is
    injected in its own lane only, so its flips land in that lane of a
    copy of the good values, and one unpacking reads every lane. No
    pairs, no evaluation.
    """
    if not words:
        return []
    good = _evaluate(net, PatternBatch.from_scan_words(net, words))
    full = (1 << len(words)) - 1
    fanout = net.fanout()
    observed = set(net.output_nets)
    bad = good[:]
    for k, f in enumerate(faults):
        det, fval = _fault_effect(net, good, full, f, fanout, observed, 1 << k)
        if det:
            for nid in observed.intersection(fval):
                bad[nid] ^= fval[nid] ^ good[nid]
    return _response_words(net, bad, len(words))


def faulty_response_word(net, word, fault):
    """Response word of the faulty machine for one scan word."""
    return _faulty_responses(net, [word], [fault])[0]


def fault_name(net, fault):
    """Stable human-readable site name."""
    stem = net.net_names[fault.net]
    if fault.branch is None:
        return stem
    pos, pin = fault.branch
    return f"{stem}/{net.gates[pos].name}.{pin}"


def export_faults(net, fs):
    """One line per fault: 'site SA0|SA1 [DETECTED@idx]'."""
    lines = []
    for i, f in enumerate(fs.all):
        line = f"{fault_name(net, f)} SA{f.stuck}"
        if fs.detected[i]:
            line += f" DETECTED@{fs.detector[i]}"
        lines.append(line)
    return "\n".join(lines) + "\n"

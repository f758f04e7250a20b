"""Two-phase test campaign mixing deterministic and generated patterns.

The campaign alternates between scanning in deterministic vectors and
letting the on-chip generator free-run, with the generator reseeded by
every deterministic load. Phase 1 runs the generator in its indirect
mode (a compress step feeding a generate step, two clocks per pattern)
until coverage reaches th1; phase 2 switches to the direct single-clock
mode. Within a phase the generator keeps running until it has gone th2
(phase 1) or th3 (phase 2) consecutive patterns without a new
detection, at which point the next deterministic vector is fetched.

Cost accounting is in test cycles and satisfies, at every point in the
run::

    cycles == pmdv * scan_length + 2 * prtp_ph1 + prtp_ph2

where pmdv counts applied deterministic vectors (each takes a full scan
load) and prtp_ph1/prtp_ph2 count generated patterns per phase. The
identity is asserted after every event; there is no other source of
cycles.

Detection bookkeeping comes in two flavours. In ``direct`` mode a fault
is detected the moment its response differs at an observed output. In
``signature`` mode the campaign additionally models the compaction
hardware: responses fold into the generator register at each generate
clock, the register is compared against the golden stream at unload
boundaries and scan loads, and a corrupted register that matches the
golden one at a boundary is recorded as aliased, not detected. A
response produced but never compressed by a generator clock (the last
pattern before a reseed or before termination) is part of no signature;
that is how the hardware behaves, not an approximation.
"""

import logging
import math
import random
from dataclasses import dataclass

from .atpg import (
    PoolExhausted,
    VectorPool,
    build_deterministic_pool,
    load_vectors,
    select_best_vector,
)
from .faultsim import (
    _diff_word,
    _faulty_responses,
    _live_indices,
    _response_diff,
    collapse_faults,
    enumerate_faults,
    fault_simulate,
)
from .netlist import circuit_profile, full_scan_transform
from .registers import (
    BilboMode,
    DegreeMismatch,
    GeneratorCycleDetected,
    IpBilbo,
    IpBilboConfig,
    Polynomial,
    default_schedule,
    ipbilbo_next_pattern,
)
from .simcore import PatternBatch, _evaluate, _response_words

log = logging.getLogger(__name__)

TERMINATIONS = (
    "target-reached",
    "budget",
    "generator-cycle-detected",
    "provider-exhausted",
)


class InvalidRatio(Exception):
    """Threshold parameter outside its meaningful range."""


@dataclass(frozen=True)
class Thresholds:
    th1: float
    th2: int
    th3: int


def _check_thresholds(th1, th2_ratio, th2):
    """Range check shared by CampaignConfig and derive_thresholds.

    An explicit th2 bypasses the ratio, so the ratio is then unchecked.
    """
    if not 0.0 <= th1 <= 1.0:
        raise InvalidRatio(f"th1 must be within [0, 1], got {th1}")
    if th2 is not None:
        if int(th2) < 1:
            raise InvalidRatio(f"th2 must be >= 1, got {int(th2)}")
    elif th2_ratio is not None and not 0.0 < th2_ratio <= 1.0:
        raise InvalidRatio(f"th2 ratio must be in (0, 1], got {th2_ratio}")


def derive_thresholds(profile, th1=0.85, th2_ratio=None, th2=None):
    """Thresholds for a circuit, scaled by its scan length.

    th2 defaults to half the scan length for short chains and a quarter
    of it beyond 256 cells; th3 is always twice th2, because phase-2
    patterns cost half as many clocks and so earn twice the patience
    before the generator is declared stale. An explicit th2 bypasses
    the ratio entirely.
    """
    _check_thresholds(th1, th2_ratio, th2)
    scan = profile.scan_length
    if th2 is not None:
        th2 = int(th2)
    else:
        if th2_ratio is None:
            th2_ratio = 0.5 if scan <= 256 else 0.25
        th2 = max(1, math.ceil(th2_ratio * scan))
    return Thresholds(th1=th1, th2=th2, th3=2 * th2)


@dataclass
class CampaignConfig:
    """Everything a run depends on; equal configs give identical runs."""

    seed: int = 1
    th1: float = 0.85
    th2_ratio: float = None
    th2: int = None
    poly_exponents: tuple = None  # tuple of exponent tuples, else built-in table
    unload_interval: int = 32
    detection_mode: str = "direct"  # or "signature"
    target_coverage: float = 1.0
    cycle_budget: int = 10_000_000
    collapse: bool = True
    backtrack_budget: int = 10 ** 6
    vector_file: str = None  # deterministic source; None = generate on demand
    shadow_limit: int = 2_000_000  # faults*gates above which aliasing is skipped

    def __post_init__(self):
        _check_thresholds(self.th1, self.th2_ratio, self.th2)
        if self.detection_mode not in ("direct", "signature"):
            raise ValueError(f"unknown detection mode {self.detection_mode!r}")
        if self.cycle_budget < 1:
            raise ValueError("cycle budget must be positive")
        if not 0.0 < self.target_coverage <= 1.0:
            raise ValueError("target coverage must be in (0, 1]")
        if self.unload_interval < 1:
            raise ValueError("unload interval must be >= 1")
        if self.backtrack_budget < 0:
            raise ValueError("backtrack budget must be >= 0")
        if self.shadow_limit < 0:
            raise ValueError("shadow limit must be >= 0")


def generator_schedule(poly_exponents, scan_length):
    """The generator's polynomial schedule for a scan chain.

    poly_exponents is CampaignConfig's: None takes the shipped table's
    polynomials of degree scan_length, explicit ones must start with a
    polynomial of that degree (DegreeMismatch otherwise).
    """
    if poly_exponents is None:
        return default_schedule(scan_length)
    sched = tuple(Polynomial.from_exponents(e) for e in poly_exponents)
    if not sched:
        raise DegreeMismatch("the polynomial schedule is empty")
    if sched[0].degree != scan_length:
        raise DegreeMismatch(
            f"generator degree {sched[0].degree} does not span the "
            f"{scan_length}-cell scan chain")
    return sched


@dataclass
class CampaignAccounting:
    adv: int = 0  # deterministic vectors obtained from the provider
    pmdv: int = 0  # deterministic vectors actually scanned in
    prtp_ph1: int = 0
    prtp_ph2: int = 0
    cycles: int = 0

    def identity_holds(self, scan_length):
        return self.cycles == (
            self.pmdv * scan_length + 2 * self.prtp_ph1 + self.prtp_ph2
        )


@dataclass
class CampaignResult:
    profile: object
    thresholds: Thresholds
    config: CampaignConfig
    accounting: CampaignAccounting
    events: list  # (cycle, event, phase, new_detections, coverage)
    terminated_by: str
    detected: int
    untestable: int
    total_faults: int
    coverage: float  # of faults proven testable
    raw_coverage: float  # of the whole universe
    schedule: tuple  # polynomial masks actually used
    signature: dict = None  # populated in signature mode

    def summary(self):
        a = self.accounting
        return (
            f"{self.profile.name}: {self.detected}/{self.total_faults} detected"
            f" ({self.untestable} untestable), coverage {self.coverage:.4f},"
            f" ADV={a.adv} PMDV={a.pmdv} PRTP1={a.prtp_ph1} PRTP2={a.prtp_ph2}"
            f" cycles={a.cycles}, terminated by {self.terminated_by}"
        )


def export_event_log(result):
    """Event log as CSV text, one row per cycle-charging event."""
    lines = ["cycle,event,phase,new_detections,coverage"]
    for cycle, event, phase, new, cov in result.events:
        lines.append(f"{cycle},{event},{phase},{new},{cov:.6f}")
    return "\n".join(lines) + "\n"


class _DeterministicProvider:
    """Hands the campaign its next-best deterministic vector.

    Backed either by a fixed file of vectors or by on-demand search. In
    search mode the pool is regrown against the current fault state
    whenever the existing vectors stop contributing; fault indices that
    already hit the backtrack budget are never retried, since the
    search is deterministic and would fail identically.
    """

    def __init__(self, net, fs, cfg):
        self.net = net
        self.cfg = cfg
        self.limited = set()
        if cfg.vector_file is not None:
            with open(cfg.vector_file) as fh:
                text = fh.read()
            vecs = load_vectors(text, len(net.input_nets),
                                random.Random(cfg.seed))
            self.pool = VectorPool(fill_seed=cfg.seed)
            for v in vecs:
                self.pool.add(v)
            self.generated = len(vecs)
            self.refreshable = False
        else:
            self.pool = build_deterministic_pool(
                net, fs, budget=cfg.backtrack_budget, fill_seed=cfg.seed
            )
            self.limited.update(self.pool.backtracked)
            self.generated = len(self.pool)
            self.refreshable = True

    def _refresh(self, fs):
        fresh = build_deterministic_pool(
            self.net, fs, budget=self.cfg.backtrack_budget,
            fill_seed=self.cfg.seed, skip=self.limited,
        )
        self.limited.update(fresh.backtracked)
        for v in fresh.vectors:
            self.pool.add(v)
        self.generated += len(fresh)
        return len(fresh)

    def next_best(self, fs):
        """Best unconsumed vector by current new-detection count, or None."""
        while True:
            try:
                vec, count = select_best_vector(self.net, self.pool, fs)
            except PoolExhausted:
                vec, count = None, 0
            if vec is not None and count > 0:
                return vec, count
            if not self.refreshable:
                # a fixed file is applied as given, useful or not
                return (vec, count) if vec is not None else None
            live = next(_live_indices(fs.detected, fs.untestable), None)
            if live is None or self._refresh(fs) == 0:
                return None
            # else reselect over the regrown pool


class _SignatureOverlay:
    """Models response compaction into the generator register.

    The golden run is the campaign's own register stream. Every fault
    is conceptually a second machine fed its own faulty responses; as
    long as that machine's register matches the golden one there is
    nothing to store, and the moment its response differs a shadow
    state is materialised and stepped exactly (its own pattern, its own
    response) until the next compare boundary. Equal-at-boundary after
    diverging is aliasing; different-at-boundary is a detection. Every
    faulty register takes the generator's own step
    (registers.ipbilbo_next_pattern); the overlay has no register
    arithmetic of its own.

    Each pattern costs one cone walk per in-sync fault, shared with
    fault simulation: the campaign hands absorb_responses the faulty
    values fault_simulate kept for the faults it just detected, and a
    fault it walked without detecting answered correctly. The overlay
    walks a cone itself only for a fault fault simulation had already
    dropped, or when no fault pass ran on the pattern. The diverged
    shadows then take one lane-packed evaluation per step.
    """

    def __init__(self, net, fs, gen):
        self.net = net
        self.fs = fs
        self.gen = gen
        self.sig_detected = bytearray(len(fs.all))
        self.shadows = {}  # fault index -> RegisterState
        self.pending_diff = {}  # fault index -> response diff, uncommitted
        self.aliased_events = 0
        self.fold_masked = 0  # diffs cancelled to zero by response folding
        self.compares = 0
        self._observed = set(net.output_nets)

    def absorb_responses(self, good_nets, effects=None):
        """Note which in-sync faults answered the current pattern wrong.

        effects is the dict fault_simulate(effects=) filled on this
        pattern, or None when no fault pass ran on it. A fault the pass
        walked takes its diff from there (none, if it went undetected);
        only faults it skipped as already detected are walked here.
        """
        self.pending_diff.clear()
        detected = self.fs.detected
        for i in _live_indices(self.sig_detected, self.fs.untestable):
            if i in self.shadows:
                continue
            if effects is not None and (i in effects or not detected[i]):
                fval = effects.get(i)
                diff = _diff_word(self.net, fval) if fval else 0
            else:
                diff = _response_diff(self.net, good_nets, self.fs.all[i],
                                      self._observed)
            if diff:
                self.pending_diff[i] = diff

    def step(self, mode, schedule_index, pre_state, response):
        """Advance every faulty machine in lockstep with the golden one.

        Called right after the golden generator stepped from
        ``pre_state`` at ``schedule_index`` on ``response``. Diverged
        machines run their own full pattern/response loop, all of them
        in one evaluation with one lane per machine. A machine that
        just produced its first wrong response steps from the golden
        pre-step state on the response it gave; if it lands on the
        golden state anyway, folding cancelled its difference.
        """
        cfg = self.gen.cfg
        golden = self.gen.state.bits
        shadows = list(self.shadows.items())
        resps = _faulty_responses(self.net, [st.bits for _i, st in shadows],
                                  [self.fs.all[i] for i, _st in shadows])
        for (i, st), resp in zip(shadows, resps):
            self.shadows[i] = ipbilbo_next_pattern(
                st, cfg, mode, resp, schedule_index)[0]
        for i, diff in self.pending_diff.items():
            st = ipbilbo_next_pattern(pre_state, cfg, mode, response ^ diff,
                                      schedule_index)[0]
            if st.bits != golden:
                self.shadows[i] = st
            else:
                self.fold_masked += 1
        self.pending_diff.clear()

    def compare_boundary(self):
        """Unload: diverged-and-different is caught, equal is aliased."""
        self.compares += 1
        golden = self.gen.state.bits
        for i, st in self.shadows.items():
            if st.bits != golden:
                self.sig_detected[i] = 1
            else:
                self.aliased_events += 1
        self.shadows.clear()

    def resync(self):
        """A scan load overwrites every register, faulty or not."""
        self.shadows.clear()
        self.pending_diff.clear()

    def stats(self):
        return {
            "detected": self.sig_detected.count(1),
            "aliased_events": self.aliased_events,
            "fold_masked": self.fold_masked,
            "boundary_compares": self.compares,
        }


class CampaignState:
    """Mutable state threaded through one campaign run."""

    def __init__(self, net, config, fs=None):
        # idempotent, and levelizes a netlist built out of gate order
        net = full_scan_transform(net)
        self.net = net
        self.cfg = config
        self.profile = circuit_profile(net)
        self.thresholds = derive_thresholds(
            self.profile, config.th1, config.th2_ratio, config.th2
        )
        if fs is None:
            fs = enumerate_faults(net)
            if config.collapse:
                fs = collapse_faults(fs, net)
        self.fs = fs
        sched = generator_schedule(config.poly_exponents,
                                   self.profile.scan_length)
        self.gen = IpBilbo(
            IpBilboConfig(sched, unload_interval=config.unload_interval)
        )
        self.schedule = tuple(p.mask for p in sched)
        self.provider = _DeterministicProvider(net, fs, config)
        self.acct = CampaignAccounting()
        self.acct.adv = self.provider.generated
        self.events = []
        self.phase = 1
        self.pattern_index = 0
        self.since_unload = 0
        self.last_response = None
        self.overlay = None
        if config.detection_mode == "signature":
            weight = len(fs.all) * max(1, self.profile.gate_count)
            if weight <= config.shadow_limit:
                self.overlay = _SignatureOverlay(net, fs, self.gen)
            else:
                log.warning(
                    "signature overlay skipped for %s: %d fault-gates "
                    "over the shadow limit", self.profile.name, weight,
                )

    # -- bookkeeping -------------------------------------------------------

    def _needed(self):
        live = len(self.fs.all) - self.fs.untestable_count()
        return math.ceil(self.cfg.target_coverage * live - 1e-9)

    def target_reached(self):
        return self.fs.detected_count() >= self._needed()

    def coverage(self):
        return self.fs.testable_coverage()

    def _log(self, event, new):
        assert self.acct.identity_holds(self.profile.scan_length), \
            "cycle accounting identity broken"
        cov = self.coverage()
        self.events.append((self.acct.cycles, event, self.phase, new, cov))

    def _respond(self, good, effects=None):
        """Keep the good response of a width-1 evaluation; feed the overlay.

        effects is what fault simulation kept of this pattern's faulty
        machines, or None when no fault pass ran on it.
        """
        self.last_response = _response_words(self.net, good, 1)[0]
        if self.overlay is not None:
            self.overlay.absorb_responses(good, effects)

    def _simulate(self, word):
        """Apply one fully-specified pattern; returns new detections.

        The pattern's good values are evaluated once, here, and shared
        by the fault simulation, the response and the overlay; so are
        the faulty values of the faults the pattern detects.
        """
        batch = PatternBatch.from_scan_words(self.net, [word])
        good = _evaluate(self.net, batch)
        effects = {} if self.overlay is not None else None
        counts = fault_simulate(
            self.net, batch, self.fs, pattern_base=self.pattern_index,
            good=good, effects=effects,
        )
        self._respond(good, effects)
        self.pattern_index += 1
        return counts[0]

    def _prime_response(self):
        """Response of the seed pattern sitting in the register.

        Only needed when a campaign starts with no deterministic vector
        at all: the register still holds its reset seed, the circuit is
        already answering it combinationally, and the first compress
        clock will absorb that answer.
        """
        if self.last_response is None:
            self._respond(_evaluate(
                self.net,
                PatternBatch.from_scan_words(self.net, [self.gen.state.bits])))

    # -- the two cycle-charging operations ----------------------------------

    def apply_deterministic(self, vec):
        """Scan in one vector: scan_length cycles, register reseeded."""
        if self.overlay is not None:
            # the load destroys register state; compare what we have first
            self.overlay.compare_boundary()
            self.overlay.resync()
        self.acct.pmdv += 1
        self.acct.cycles += self.profile.scan_length
        self.gen.load(vec.bits)
        new = self._simulate(vec.bits)
        self.since_unload = 0
        self._log("deterministic", new)
        return new

    def apply_pseudorandom(self, phase):
        """One generated pattern; 2 cycles in phase 1, 1 in phase 2.

        Raises GeneratorCycleDetected, before any state change, when
        the generator is about to replay itself.
        """
        mode = BilboMode(0 if phase == 1 else 1)
        self._prime_response()
        pre_idx, pre_state = self.gen.schedule_index, self.gen.state
        cycles = self.gen.next_pattern(mode, self.last_response)
        if self.overlay is not None:
            self.overlay.step(mode, pre_idx, pre_state, self.last_response)
        self.acct.cycles += cycles
        if phase == 1:
            self.acct.prtp_ph1 += 1
        else:
            self.acct.prtp_ph2 += 1
        new = self._simulate(self.gen.state.bits)
        self.since_unload += 1
        if self.since_unload >= self.cfg.unload_interval:
            if self.overlay is not None:
                self.overlay.compare_boundary()
            self.since_unload = 0
        self._log("pseudorandom", new)
        return new


def _random_burst(state):
    """Generator free-run until the miss budget or a stop condition.

    Returns (reason, any_detections); reason is one of 'target',
    'budget', 'th1', 'th', 'cycle'.
    """
    phase = state.phase
    th = state.thresholds.th2 if phase == 1 else state.thresholds.th3
    misses = 0
    hit = False
    while misses < th:
        try:
            new = state.apply_pseudorandom(phase)
        except GeneratorCycleDetected:
            return "cycle", hit
        if new:
            hit = True
            misses = 0
        else:
            misses += 1
        if state.target_reached():
            return "target", hit
        if state.acct.cycles >= state.cfg.cycle_budget:
            return "budget", hit
        if phase == 1 and state.coverage() >= state.thresholds.th1:
            return "th1", hit
    return "th", hit


def run_campaign(net, config=None, fs=None):
    """Run the full two-phase campaign on a circuit.

    The fault set is enumerated (and collapsed, per config) from the
    netlist unless a prepared one is passed in. A passed-in fs is
    updated in place, not copied: detections and untestable verdicts
    are written into it, so afterwards result.detected equals
    fs.detected_count().

    The first deterministic vector is always applied (the generator
    needs a seed worth its silicon); afterwards the structure is:
    free-run, reseed when the generator goes stale, advance to phase 2
    at th1 coverage, and stop at target coverage, at the cycle budget,
    on a generator cycle with no reseed left, or when a whole phase-2
    burst finds nothing and neither can the provider.
    """
    if config is None:
        config = CampaignConfig()
    state = CampaignState(net, config, fs)
    terminated = None
    pending_det = True

    while terminated is None:
        if state.target_reached():
            terminated = "target-reached"
            break
        if state.acct.cycles >= config.cycle_budget:
            terminated = "budget"
            break
        if state.phase == 1 and state.coverage() >= state.thresholds.th1:
            state.phase = 2
            pending_det = True
            continue
        if pending_det:
            pending_det = False
            nxt = state.provider.next_best(state.fs)
            if nxt is not None:
                state.apply_deterministic(nxt[0])
            elif state.phase == 1:
                # nothing deterministic at all; the cheap phase-2 stream
                # still deserves its shot before the run gives up
                state.phase = 2
            continue
        reason, hit = _random_burst(state)
        if reason == "target":
            terminated = "target-reached"
        elif reason == "budget":
            terminated = "budget"
        elif reason == "th1":
            state.phase = 2
            pending_det = True
        else:  # 'th' or 'cycle': the stream has gone stale, reseed it
            nxt = state.provider.next_best(state.fs)
            if nxt is not None:
                state.apply_deterministic(nxt[0])
            elif state.phase == 1:
                state.phase = 2
            elif reason == "cycle":
                terminated = "generator-cycle-detected"
            elif not hit:
                terminated = "provider-exhausted"
            # else: phase 2 is still finding faults on its own; burst again

    if state.overlay is not None:
        # final unload so trailing divergence is not silently dropped
        state.overlay.compare_boundary()

    acct = state.acct
    assert acct.identity_holds(state.profile.scan_length)
    fs = state.fs
    return CampaignResult(
        profile=state.profile,
        thresholds=state.thresholds,
        config=config,
        accounting=acct,
        events=state.events,
        terminated_by=terminated,
        detected=fs.detected_count(),
        untestable=fs.untestable_count(),
        total_faults=len(fs.all),
        coverage=fs.testable_coverage(),
        raw_coverage=fs.coverage(),
        schedule=state.schedule,
        signature=state.overlay.stats() if state.overlay else None,
    )

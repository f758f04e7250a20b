"""Two-phase campaign: thresholds, cycle accounting, termination paths."""

import math
import random
import sys

import pytest

from bistlab import atpg, scheduler, simcore
from bistlab.atpg import TestVector
from bistlab.cli import main
from bistlab.registers import (
    DegreeMismatch,
    RegisterState,
    fold_response,
    next_lfsr,
)
from bistlab.netlist import circuit_profile, full_scan_transform, load_bench, parse_bench
from bistlab.faultsim import collapse_faults, enumerate_faults, faulty_response_word
from bistlab.scheduler import (
    CampaignConfig,
    CampaignState,
    InvalidRatio,
    TERMINATIONS,
    derive_thresholds,
    export_event_log,
    run_campaign,
    _random_burst,
    _SignatureOverlay,
)

from conftest import random_circuit

AND2 = """\
INPUT(a)
INPUT(b)
OUTPUT(z)
z = AND(a, b)
"""

AND8 = "\n".join([f"INPUT(i{k})" for k in range(8)] + [
    "OUTPUT(z)",
    "z = AND(i0, i1, i2, i3, i4, i5, i6, i7)",
])


class _FakeProfile:
    def __init__(self, scan_length):
        self.scan_length = scan_length


# ---------------------------------------------------------- event-log audit

def audit_events(result):
    """Recompute the accounting from the event log alone.

    Checks, at every event: the per-event cycle delta matches its kind
    (scan_length for a load, 2 for a phase-1 pattern, 1 for a phase-2
    pattern), the running identity cycles == PMDV*scan + 2*PRTP1 +
    PRTP2, phases never go backwards, and coverage never drops.
    """
    scan = result.profile.scan_length
    pmdv = prtp1 = prtp2 = 0
    prev_cycle = 0
    prev_phase = 1
    prev_cov = -1.0
    for cycle, event, phase, new, cov in result.events:
        delta = cycle - prev_cycle
        if event == "deterministic":
            pmdv += 1
            assert delta == scan, (cycle, event, delta)
        elif event == "pseudorandom" and phase == 1:
            prtp1 += 1
            assert delta == 2, (cycle, event, delta)
        elif event == "pseudorandom" and phase == 2:
            prtp2 += 1
            assert delta == 1, (cycle, event, delta)
        else:
            raise AssertionError(f"unknown event {event!r}")
        assert cycle == pmdv * scan + 2 * prtp1 + prtp2
        assert phase >= prev_phase
        assert cov >= prev_cov - 1e-12
        prev_cycle, prev_phase, prev_cov = cycle, phase, cov
    a = result.accounting
    assert (pmdv, prtp1, prtp2) == (a.pmdv, a.prtp_ph1, a.prtp_ph2)
    assert prev_cycle == a.cycles
    assert a.identity_holds(scan)


def max_miss_run(result):
    """Longest run of zero-detection patterns between two loads."""
    worst = run = 0
    for _, event, _, new, _ in result.events:
        if event == "deterministic":
            run = 0
        elif new == 0:
            run += 1
            worst = max(worst, run)
        else:
            run = 0
    return worst


# -------------------------------------------------------------- thresholds

def test_thresholds_short_chain():
    t = derive_thresholds(_FakeProfile(32))
    assert (t.th2, t.th3) == (16, 32)


def test_thresholds_long_chain_quarter_ratio():
    t = derive_thresholds(_FakeProfile(700))
    assert (t.th2, t.th3) == (175, 350)


def test_thresholds_ratio_boundary():
    assert derive_thresholds(_FakeProfile(256)).th2 == 128
    assert derive_thresholds(_FakeProfile(257)).th2 == math.ceil(257 * 0.25)


def test_thresholds_explicit_th2_wins():
    t = derive_thresholds(_FakeProfile(700), th2=10)
    assert (t.th2, t.th3) == (10, 20)


def test_thresholds_floor_at_one():
    t = derive_thresholds(_FakeProfile(1), th2_ratio=0.1)
    assert t.th2 == 1


def test_thresholds_rejections():
    with pytest.raises(InvalidRatio):
        derive_thresholds(_FakeProfile(32), th1=1.5)
    with pytest.raises(InvalidRatio):
        derive_thresholds(_FakeProfile(32), th1=-0.1)
    with pytest.raises(InvalidRatio):
        derive_thresholds(_FakeProfile(32), th2=0)
    with pytest.raises(InvalidRatio):
        derive_thresholds(_FakeProfile(32), th2_ratio=0.0)
    with pytest.raises(InvalidRatio):
        derive_thresholds(_FakeProfile(32), th2_ratio=1.5)


def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(detection_mode="misr")
    with pytest.raises(ValueError):
        CampaignConfig(cycle_budget=0)
    with pytest.raises(ValueError):
        CampaignConfig(target_coverage=0.0)
    with pytest.raises(ValueError):
        CampaignConfig(target_coverage=1.1)


@pytest.mark.parametrize("field, value, flag", [
    ("unload_interval", 0, "--unload-interval"),
    ("backtrack_budget", -1, "--backtrack-budget"),
    ("shadow_limit", -1, None),  # library-only field, no flag
])
def test_config_rejects_negative_counts(field, value, flag, capsys):
    with pytest.raises(ValueError, match=field.replace("_", " ")):
        CampaignConfig(**{field: value})
    if flag is not None:
        assert main(["campaign", "--bench", "s27", flag, str(value)]) == 1
        assert field.replace("_", " ") in capsys.readouterr().err


# ---------------------------------------------------------- full campaigns

@pytest.fixture(scope="module")
def s27_result():
    return run_campaign(load_bench("s27"), CampaignConfig(seed=1))


def test_s27_reaches_full_coverage(s27_result):
    r = s27_result
    assert r.terminated_by == "target-reached"
    assert r.coverage == 1.0
    assert r.detected == r.total_faults - r.untestable
    assert r.terminated_by in TERMINATIONS


def test_s27_event_accounting(s27_result):
    audit_events(s27_result)
    assert s27_result.events[0][1] == "deterministic"


def test_s27_miss_runs_bounded(s27_result):
    r = s27_result
    assert max_miss_run(r) <= max(r.thresholds.th2, r.thresholds.th3)


def test_s27_event_csv_shape(s27_result):
    text = export_event_log(s27_result)
    lines = text.strip().split("\n")
    assert lines[0] == "cycle,event,phase,new_detections,coverage"
    assert len(lines) == len(s27_result.events) + 1
    cycles = []
    for row in lines[1:]:
        c, event, phase, new, cov = row.split(",")
        cycles.append(int(c))
        assert event in ("deterministic", "pseudorandom")
        assert phase in ("1", "2")
        int(new)
        assert len(cov.split(".")[1]) == 6
    assert cycles == sorted(cycles)
    assert float(lines[-1].split(",")[4]) == pytest.approx(s27_result.coverage,
                                                           abs=1e-6)


def test_campaign_is_deterministic():
    net = load_bench("s27")
    a = run_campaign(net, CampaignConfig(seed=1))
    b = run_campaign(net, CampaignConfig(seed=1))
    assert a.events == b.events
    assert a.accounting == b.accounting
    assert export_event_log(a) == export_event_log(b)


def test_campaign_accepts_sequential_netlist_directly():
    # raw s27 still has its flip-flops; the run must scan-transform it
    raw = load_bench("s27")
    assert raw.has_dffs()
    r = run_campaign(raw)
    assert r.profile.scan_length == len(full_scan_transform(raw).input_nets)


def test_campaign_accepts_prepared_fault_set(s27):
    fs = collapse_faults(enumerate_faults(s27), s27)
    total = len(fs.all)
    assert fs.detected_count() == 0
    r = run_campaign(s27, CampaignConfig(seed=1), fs=fs)
    assert r.total_faults == total
    # documented: the caller's set is updated in place, not copied
    assert fs.detected_count() == r.detected > 0
    assert fs.untestable_count() == r.untestable
    patterns = r.accounting.pmdv + r.accounting.prtp_ph1 + r.accounting.prtp_ph2
    assert max(fs.detector.values()) < patterns


def test_th1_zero_skips_phase_one():
    r = run_campaign(load_bench("s27"), CampaignConfig(th1=0.0))
    assert r.accounting.prtp_ph1 == 0
    assert all(phase == 2 for _, _, phase, _, _ in r.events)
    assert r.accounting.pmdv >= 1  # the entry vector still loads


def test_early_target_stop():
    r = run_campaign(load_bench("s27"), CampaignConfig(target_coverage=0.5))
    assert r.terminated_by == "target-reached"
    assert r.coverage >= 0.5
    full = run_campaign(load_bench("s27"), CampaignConfig())
    assert r.accounting.cycles < full.accounting.cycles


def test_budget_stop_allows_atomic_overshoot():
    r = run_campaign(load_bench("s27"), CampaignConfig(cycle_budget=10))
    assert r.terminated_by == "budget"
    # events are atomic; the run may finish the pattern it started
    assert 10 <= r.accounting.cycles <= 10 + r.profile.scan_length
    audit_events(r)


def test_phase2_cheaper_than_phase1(s27_result):
    # same generator, half the clocks once compression is skipped
    ph1 = [e for e in s27_result.events if e[1] == "pseudorandom" and e[2] == 1]
    ph2 = [e for e in s27_result.events if e[1] == "pseudorandom" and e[2] == 2]
    assert ph1 and ph2


# ------------------------------------------------------- termination paths

def test_generator_cycle_terminates(tmp_path):
    vf = tmp_path / "weak.vec"
    vf.write_text("00\n")
    net = parse_bench(AND2, "and2")
    r = run_campaign(net, CampaignConfig(vector_file=str(vf)))
    assert r.terminated_by == "generator-cycle-detected"
    assert r.coverage < 1.0
    audit_events(r)


def test_provider_exhausted_terminates(tmp_path):
    vf = tmp_path / "one.vec"
    vf.write_text("01111111\n")
    net = parse_bench(AND8, "and8")
    r = run_campaign(net, CampaignConfig(vector_file=str(vf), th2=2))
    assert r.terminated_by == "provider-exhausted"
    assert r.detected < r.total_faults
    assert r.untestable == 0
    audit_events(r)


def test_burst_cycle_trip_then_reseed_recovers(tmp_path):
    # A stuck generator inside phase 1 is not fatal: the next load
    # clears the guard memory and the stream runs again.
    vf = tmp_path / "stuck.vec"
    vf.write_text("00\n")
    net = parse_bench(AND2, "and2")
    state = CampaignState(net, CampaignConfig(vector_file=str(vf), th2=50))
    vec, _ = state.provider.next_best(state.fs)
    state.apply_deterministic(vec)
    reason, hit = _random_burst(state)
    assert reason == "cycle"
    state.apply_deterministic(TestVector(0b11, 2, "unit"))
    state.apply_pseudorandom(1)  # would raise if the guard still held


def test_vector_file_campaign_applies_in_benefit_order(tmp_path):
    vf = tmp_path / "full.vec"
    vf.write_text("11\n01\n10\n00\n")
    net = parse_bench(AND2, "and2")
    r = run_campaign(net, CampaignConfig(vector_file=str(vf)))
    assert r.terminated_by == "target-reached"
    assert r.coverage == 1.0
    assert r.accounting.adv == 4  # the whole file is the advertised pool
    assert r.accounting.pmdv <= 3  # but not every vector needs scanning in


# ----------------------------------------------------------- configuration

def test_poly_exponents_override():
    net = parse_bench(AND2, "and2")
    r = run_campaign(net, CampaignConfig(poly_exponents=((2, 1, 0),)))
    assert r.schedule == (0b11,)


def test_poly_exponents_must_match_scan_length():
    net = parse_bench(AND2, "and2")
    with pytest.raises(DegreeMismatch):
        run_campaign(net, CampaignConfig(poly_exponents=((3, 1, 0), (3, 2, 0))))


def test_unknown_scan_length_needs_explicit_polynomials():
    # no shipped polynomial of degree 611; the error should say so
    class _P:
        pass
    inputs = "\n".join(f"INPUT(i{k})" for k in range(611))
    ands = "z = AND(" + ", ".join(f"i{k}" for k in range(611)) + ")"
    net = parse_bench(inputs + "\nOUTPUT(z)\n" + ands, "wide")
    with pytest.raises(ValueError) as err:
        run_campaign(net, CampaignConfig())
    assert "611" in str(err.value)


# --------------------------------------------------------- signature mode

def test_signature_mode_costs_nothing_extra(s27):
    direct = run_campaign(s27, CampaignConfig(seed=1))
    sig = run_campaign(s27, CampaignConfig(seed=1, detection_mode="signature"))
    assert sig.accounting.cycles == direct.accounting.cycles
    assert sig.accounting == direct.accounting
    assert [e[:4] for e in sig.events] == [e[:4] for e in direct.events]
    assert direct.signature is None
    assert sig.signature is not None


def test_signature_stats_shape(s27):
    r = run_campaign(s27, CampaignConfig(seed=1, detection_mode="signature"))
    s = r.signature
    assert set(s) == {"detected", "aliased_events", "fold_masked",
                      "boundary_compares"}
    assert s["boundary_compares"] >= 1
    assert 0 < s["detected"] <= r.detected


def test_signature_frequent_unloads_catch_more(s27):
    rare = run_campaign(s27, CampaignConfig(seed=1, detection_mode="signature",
                                            unload_interval=64))
    often = run_campaign(s27, CampaignConfig(seed=1, detection_mode="signature",
                                             unload_interval=1))
    assert often.signature["boundary_compares"] >= rare.signature["boundary_compares"]
    assert often.signature["detected"] >= rare.signature["detected"]


def test_signature_overlay_size_gate(s27):
    r = run_campaign(s27, CampaignConfig(seed=1, detection_mode="signature",
                                         shadow_limit=1))
    assert r.signature is None  # too big by configuration, direct counts stand
    assert r.coverage == 1.0


class _RecordedOverlay(_SignatureOverlay):
    made = []

    def __init__(self, *args):
        super().__init__(*args)
        self.made.append(self)


class _WidthOneOverlay(_RecordedOverlay):
    """Reference: every diverged shadow answers its own pattern with its
    own width-1 faulty_response_word call, one evaluation each."""

    def step(self, mode, schedule_index, golden_next):
        sched = self.gen.cfg.poly_schedule
        n = self.gen.cfg.width
        L = len(sched)
        for i, st in list(self.shadows.items()):
            resp = faulty_response_word(self.net, st.bits, self.fs.all[i])
            misr = (next_lfsr(st, sched[schedule_index % L]).bits
                    ^ fold_response(resp, n))
            if mode.ms == 0:
                misr = next_lfsr(RegisterState(n, misr),
                                 sched[(schedule_index + 1) % L]).bits
            self.shadows[i] = RegisterState(n, misr)
        for i, diff in self.pending_diff.items():
            d = fold_response(diff, n)
            if mode.ms == 0:
                d = next_lfsr(RegisterState(n, d),
                              sched[(schedule_index + 1) % L]).bits
            if d:
                self.shadows[i] = RegisterState(n, golden_next ^ d)
            else:
                self.fold_masked += 1
        self.pending_diff.clear()


def test_batched_shadows_match_width_one_reference(monkeypatch):
    rng = random.Random(15)
    # random circuits often have more outputs than inputs (the scan
    # length), so response folding can cancel a diff: fold_masked
    nets = [load_bench("c17"), load_bench("s27")]
    nets += [random_circuit(rng, max_gates=16, name=f"r{k}") for k in range(30)]
    totals = {"aliased_events": 0, "fold_masked": 0}
    for net in nets:
        for interval in (1, 4, 32):
            cfg = CampaignConfig(seed=1, detection_mode="signature",
                                 unload_interval=interval)
            runs = []
            for cls in (_RecordedOverlay, _WidthOneOverlay):
                monkeypatch.setattr(scheduler, "_SignatureOverlay", cls)
                _RecordedOverlay.made.clear()
                r = run_campaign(net, cfg)
                (overlay,) = _RecordedOverlay.made
                runs.append((r.signature, export_event_log(r),
                             bytes(overlay.sig_detected)))
            assert runs[0] == runs[1], (net.name, interval)
            for key in totals:
                totals[key] += runs[0][0][key]
    assert totals["aliased_events"] > 0 and totals["fold_masked"] > 0


@pytest.mark.parametrize("vectors,interval", [
    ("6 words", 4), ("6 words", 32), ("empty", 8)])
def test_one_evaluation_per_pattern_and_per_shadow_step(
        vectors, interval, tmp_path, monkeypatch):
    """Guard: good-machine evaluations in a signature campaign are one
    per applied pattern, one per overlay step with any shadow, one per
    ranking call, plus one if the seed response had to be primed."""
    rng = random.Random(5)
    vf = tmp_path / "s27.vec"
    vf.write_text("" if vectors == "empty" else "".join(
        f"{rng.getrandbits(7):07b}\n" for _ in range(6)))
    seen = {"evaluate": 0, "ranking": 0, "shadow_steps": 0,
            "widest_step": 0, "primed": 0}
    real_evaluate = simcore._evaluate

    def evaluate(*args):
        seen["evaluate"] += 1
        return real_evaluate(*args)

    for name, mod in list(sys.modules.items()):
        if name == "bistlab" or name.startswith("bistlab."):
            for attr, value in list(vars(mod).items()):
                if value is real_evaluate:
                    monkeypatch.setattr(mod, attr, evaluate)
    real_count = atpg.count_new_detections

    def count(*args):
        seen["ranking"] += 1
        return real_count(*args)

    monkeypatch.setattr(atpg, "count_new_detections", count)
    real_step = _SignatureOverlay.step

    def step(self, *args):
        if self.shadows:
            seen["shadow_steps"] += 1
            seen["widest_step"] = max(seen["widest_step"], len(self.shadows))
        return real_step(self, *args)

    monkeypatch.setattr(_SignatureOverlay, "step", step)
    real_prime = CampaignState._prime_response

    def prime(self):
        seen["primed"] += self.last_response is None
        return real_prime(self)

    monkeypatch.setattr(CampaignState, "_prime_response", prime)
    r = run_campaign(load_bench("s27"), CampaignConfig(
        seed=1, detection_mode="signature", unload_interval=interval,
        vector_file=str(vf), th2=8))
    a = r.accounting
    patterns = a.pmdv + a.prtp_ph1 + a.prtp_ph2
    assert seen["evaluate"] == (patterns + seen["shadow_steps"]
                                + seen["ranking"] + seen["primed"]), seen
    # the guard only bites if some step carries several shadows
    assert seen["widest_step"] >= 2
    assert seen["primed"] == (vectors == "empty")


def test_summary_mentions_the_verdict(s27_result):
    text = s27_result.summary()
    assert "target-reached" in text
    assert "PMDV" in text

"""One benchmark repetition, run in a fresh process by run.py.

It times what ``bistlab campaign`` does: import the package, load and
scan the circuit, enumerate and collapse faults (set-up), then run the
campaign and build its CSV and JSON reports and event log. It audits
the result and prints one JSON line.

    python3 perfbench/child.py --workload replay --bench F.bench --src ./src
                               [--vectors F.vec] [--trace] [--setup-only]
"""

import argparse
import hashlib
import json
import resource
import sys
import time

import workloads
from tracer import Tracer


def audit(result, fs, scan_length):
    """What is wrong with a finished campaign, as a list of messages.

    Replays the cycle identity over the event log, recounts coverage
    from the fault set and checks the overlay ran where it was asked
    for.
    """
    problems = []
    acct = result.accounting
    cycles, kinds = 0, {"det": 0, 1: 0, 2: 0}
    for cycle, event, phase, _new, _cov in result.events:
        if event == "deterministic":
            cycles += scan_length
            kinds["det"] += 1
        else:
            cycles += 2 if phase == 1 else 1
            kinds[phase] += 1
        if cycle != cycles:
            problems.append(f"event log cycle {cycle} != replayed {cycles}")
            break
    if (cycles != acct.cycles
            or acct.cycles != acct.pmdv * scan_length
            + 2 * acct.prtp_ph1 + acct.prtp_ph2
            or (kinds["det"], kinds[1], kinds[2])
            != (acct.pmdv, acct.prtp_ph1, acct.prtp_ph2)):
        problems.append("cycle identity fails over the event log")
    detected = sum(fs.detected)
    live = len(fs.all) - sum(fs.untestable)
    if result.coverage != (detected / live if live else 1.0):
        problems.append("coverage differs from a recount of the fault set")
    if sum(e[3] for e in result.events) != detected:
        problems.append("event-log detections differ from the fault set")
    if result.config.detection_mode == "signature" and result.signature is None:
        problems.append("signature overlay was skipped")
    return problems


def repetition(workload, bench, vectors=None, trace=False, setup_only=False):
    """Run one repetition in this process; returns the record run.py reads.

    Set-up time starts before bistlab is imported, so it includes the
    import when this is the process's first repetition.
    """
    t0 = time.perf_counter()
    from bistlab import faultsim, netlist, report, scheduler

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        net = netlist.full_scan_transform(netlist.load_bench(bench))
        fs = faultsim.collapse_faults(faultsim.enumerate_faults(net), net)
        setup_s = time.perf_counter() - t0
        out = {"setup_s": setup_s, "problems": []}
        if setup_only:
            return out
        cfg = scheduler.CampaignConfig(
            **workloads.campaign_config(workload, vectors))
        gates = netlist.circuit_profile(net).gate_count
        if cfg.detection_mode == "signature" \
                and len(fs.all) * gates > cfg.shadow_limit:
            out["problems"].append(
                f"{len(fs.all)} faults x {gates} gates over the shadow limit")
        t1 = time.perf_counter()
        result = scheduler.run_campaign(net, cfg, fs)
        rep = report.compute_improvements(report.compute_cost_model(
            result.accounting.adv, result.profile, result.accounting))
        texts = (report.emit_report([rep], "csv"),
                 report.emit_report([rep], "json"),
                 scheduler.export_event_log(result))
        campaign_s = time.perf_counter() - t1
    finally:
        if tracer:
            tracer.restore()

    acct = result.accounting
    sig = result.signature or {}
    out["problems"] += audit(result, fs, result.profile.scan_length)
    out.update({
        "campaign_s": campaign_s,
        "patterns": acct.pmdv + acct.prtp_ph1 + acct.prtp_ph2,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "coverage": result.coverage,
        "test_cycles": acct.cycles,
        "output_digest": hashlib.sha256(
            "\0".join(texts).encode()).hexdigest(),
        # simulated counts: a speed-only change must leave them identical
        "counts": {
            "scheduler.adv": acct.adv,
            "scheduler.pmdv": acct.pmdv,
            "scheduler.prtp_ph1": acct.prtp_ph1,
            "scheduler.prtp_ph2": acct.prtp_ph2,
            "scheduler.overlay.aliased_events": sig.get("aliased_events", 0),
            "scheduler.overlay.fold_masked": sig.get("fold_masked", 0),
            "scheduler.overlay.boundary_compares":
                sig.get("boundary_compares", 0),
        },
    })
    if tracer:
        out["layers"] = tracer.layers()
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--bench", required=True)
    ap.add_argument("--vectors")
    ap.add_argument("--src", required=True,
                    help="the bistlab sources this run must import")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    out = repetition(args.workload, args.bench, args.vectors, args.trace,
                     args.setup_only)
    print(json.dumps(out))


if __name__ == "__main__":
    main()

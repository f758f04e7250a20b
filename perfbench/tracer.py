"""Per-layer spans around bistlab's public functions, patched from outside.

Each wrapped call records a span: name, start, end, the span open when
it began (its parent) and an outcome tag. Spans stay in memory until
``layers`` folds them into per-layer totals. A span's self time is its
duration minus the time its child spans cover; the program is single
threaded, so children never overlap.

``scheduler`` and ``atpg`` bind many of these names with
``from ... import``, so a function is replaced under every name that
refers to it in every loaded ``bistlab`` module. Methods are replaced
on their class.
"""

import sys
import time
from collections import Counter, defaultdict


def _podem_outcome(result, exc):
    from bistlab.atpg import UNTESTABLE, BacktrackLimit

    if isinstance(exc, BacktrackLimit):
        return "abort"
    return "untestable" if result is UNTESTABLE else None


def _pick_outcome(result, exc):
    if exc is not None:
        return None  # PoolExhausted: nothing was picked
    return "hit" if result[1] > 0 else "miss"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, outcome]
        self.live_faults = 0
        self._open = []
        self._patches = []

    def _wrap(self, name, fn, outcome=None, before=None):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            span = [name, 0.0, 0.0, open_[-1] if open_ else None, None]
            spans.append(span)
            open_.append(len(spans) - 1)
            result = exc = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                span[2] = clock()
                open_.pop()
                if outcome is not None:
                    span[4] = outcome(result, exc)

        return traced

    def _count_live(self, net, batch, fs, *rest):
        self.live_faults += len(fs.all) - sum(fs.detected)

    def install(self):
        from bistlab import atpg, faultsim, netlist, registers, scheduler, simcore

        functions = [
            ("netlist.load_bench", netlist.load_bench, {}),
            ("netlist.full_scan_transform", netlist.full_scan_transform, {}),
            ("faultsim.enumerate_faults", faultsim.enumerate_faults, {}),
            ("faultsim.collapse_faults", faultsim.collapse_faults, {}),
            ("faultsim.fault_simulate", faultsim.fault_simulate,
             {"before": self._count_live}),
            ("faultsim.faulty_response_word", faultsim.faulty_response_word, {}),
            ("simcore.simulate_batch", simcore.simulate_batch, {}),
            ("atpg.podem", atpg.podem, {"outcome": _podem_outcome}),
            ("atpg.build_deterministic_pool", atpg.build_deterministic_pool, {}),
            ("atpg.count_new_detections", atpg.count_new_detections, {}),
            ("atpg.select_best_vector", atpg.select_best_vector,
             {"outcome": _pick_outcome}),
            ("scheduler.run_campaign", scheduler.run_campaign, {}),
        ]
        modules = [m for k, m in list(sys.modules.items())
                   if k == "bistlab" or k.startswith("bistlab.")]
        for name, fn, extra in functions:
            traced = self._wrap(name, fn, **extra)
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is fn]:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, traced)
        methods = [
            ("registers.next_pattern", registers.IpBilbo, "next_pattern"),
            ("scheduler.apply_pseudorandom", scheduler.CampaignState,
             "apply_pseudorandom"),
            ("scheduler.apply_deterministic", scheduler.CampaignState,
             "apply_deterministic"),
        ]
        for name, cls, attr in methods:
            fn = cls.__dict__[attr]
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn))

    def restore(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def layers(self):
        """Per-layer metrics folded from the recorded spans."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _name, t0, t1, parent, _ in spans:
            if parent is not None:
                covered[parent] += t1 - t0
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        outcomes = Counter()
        for i, (name, t0, t1, parent, outcome) in enumerate(spans):
            if name == "atpg.count_new_detections" and parent is not None:
                # attribute the ranking kernel to the loop that called it
                caller = spans[parent][0]
                if caller == "atpg.build_deterministic_pool":
                    name = "atpg.compaction.count_new_detections"
                elif caller == "atpg.select_best_vector":
                    name = "atpg.ranking.count_new_detections"
            calls[name] += 1
            total[name] += t1 - t0
            own[name] += t1 - t0 - covered[i]
            if outcome is not None:
                outcomes[name, outcome] += 1

        picks = (outcomes["atpg.select_best_vector", "hit"]
                 + outcomes["atpg.select_best_vector", "miss"])
        podems = calls["atpg.podem"]
        m = {
            "netlist.load_bench.s": total["netlist.load_bench"],
            "netlist.full_scan_transform.s":
                total["netlist.full_scan_transform"],
            "faultsim.enumerate_faults.s": total["faultsim.enumerate_faults"],
            "faultsim.collapse_faults.s": total["faultsim.collapse_faults"],
            "faultsim.fault_simulate.live_faults": self.live_faults,
            "faultsim.fault_simulate.us_per_fault":
                own["faultsim.fault_simulate"] / self.live_faults * 1e6
                if self.live_faults else 0.0,
            "atpg.podem.aborts": outcomes["atpg.podem", "abort"],
            "atpg.podem.untestable": outcomes["atpg.podem", "untestable"],
            "atpg.podem.abort_ratio":
                outcomes["atpg.podem", "abort"] / podems if podems else 0.0,
            "atpg.build_deterministic_pool.s":
                total["atpg.build_deterministic_pool"],
            "atpg.ranking.select_best_vector.calls":
                calls["atpg.select_best_vector"],
            "atpg.ranking.select_best_vector.s":
                total["atpg.select_best_vector"],
            "atpg.ranking.sims_per_pick":
                calls["atpg.ranking.count_new_detections"] / picks
                if picks else 0.0,
            "atpg.ranking.hit_ratio":
                outcomes["atpg.select_best_vector", "hit"] / picks
                if picks else 0.0,
        }
        for name in ("faultsim.fault_simulate", "faultsim.faulty_response_word",
                     "simcore.simulate_batch", "atpg.podem",
                     "atpg.compaction.count_new_detections",
                     "atpg.ranking.count_new_detections",
                     "registers.next_pattern", "scheduler.apply_pseudorandom",
                     "scheduler.apply_deterministic"):
            m[name + ".calls"] = calls[name]
            m[name + ".self_s"] = own[name]
        m["atpg.build_deterministic_pool.calls"] = \
            calls["atpg.build_deterministic_pool"]
        m["scheduler.run_campaign.self_s"] = own["scheduler.run_campaign"]
        return m

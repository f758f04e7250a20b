"""The benchmark's workloads and the inputs each one hands the program.

Each workload is one ``bistlab campaign`` on its own synthetic circuit,
shaped like a published row: the scan length (PIs plus flip-flops) is
the row's, the gate count is the ISCAS'89 original's.

* ``podem`` builds its deterministic vectors on demand, so the ``atpg``
  layer (PODEM search and greedy compaction) dominates and the
  signature overlay is bypassed.
* ``replay`` takes its deterministic vectors from a fixed file, so
  PODEM is bypassed and per-pattern fault simulation plus
  ``select_best_vector`` ranking dominate.
* ``signature`` is ``replay`` plus the response-compaction overlay, so
  an overlay change shows here and not on ``replay``.

The circuit structure and the vector file come from the row number, so
every seed does the same work and a spread between seeds measures the
machine, not the circuit. The run seed picks the net names, so each
seed still hands the program different text.
"""

import os
from dataclasses import dataclass

import synth

# Explicit, so no workload ever runs with the 10**6 default, where one
# aborted fault costs minutes.
BACKTRACK_BUDGET = 100


@dataclass(frozen=True)
class Workload:
    row: str  # published row the circuit is shaped like
    pis: int
    ffs: int
    pos: int
    gates: int
    vectors: int = 0  # vector-file size; 0 means on-demand PODEM
    mode: str = "direct"

    @property
    def stem(self):
        return f"synth_{self.row}"


WORKLOADS = {
    "podem": Workload("s1238", pis=14, ffs=18, pos=14, gates=508),
    "replay": Workload("s1423", pis=35, ffs=56, pos=5, gates=657,
                       vectors=64),
    "signature": Workload("s1423", pis=35, ffs=56, pos=5, gates=657,
                          vectors=64, mode="signature"),
}


def structure_seed(w):
    return int(w.row.lstrip("s"))


def write_inputs(name, seed, directory):
    """Write the workload's .bench (and .vec) files; return their paths."""
    w = WORKLOADS[name]
    bench = os.path.join(directory, w.stem + ".bench")
    with open(bench, "w") as fh:
        fh.write(synth.generate(w.pis, w.ffs, w.pos, w.gates,
                                structure_seed(w), name_seed=seed,
                                name=w.stem))
    if not w.vectors:
        return bench, None
    vec = os.path.join(directory, w.stem + ".vec")
    with open(vec, "w") as fh:
        fh.write(synth.vectors(w.pis + w.ffs, w.vectors, structure_seed(w)))
    return bench, vec


def campaign_config(name, vector_file):
    """CampaignConfig keyword arguments for one workload."""
    return dict(seed=1, backtrack_budget=BACKTRACK_BUDGET,
                detection_mode=WORKLOADS[name].mode, vector_file=vector_file)

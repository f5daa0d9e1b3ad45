"""Write ``bench/pools.json``: the screened graph seeds every workload draws from.

Run from the repository root to rebuild the pools:

    python3 bench/pools.py

The benchmark never screens graphs itself.  Its set-up draws instances from
this fixed file by ``--seed``, so a later change to community detection or
reduction runs on the same graphs as its parent and shows end to end.

For every workload class the script draws graph seeds from a fixed master
seed, scores each graph with the package as it stands when the script is run,
keeps the ones inside the class's window, and stores ``[score, graph seed]``
pairs sorted by score.  The scores only order the pool into strata; the
benchmark does not recompute them.

* ``reduce-sparse``: the score is the predicted quench work of
  ``detect_multilevel`` + ``refine_boundary`` under the graph's own seed, in
  core solves: sum over communities of 2**|B_c| * (1 + 2**|C_c| / 2048).  One
  core solve costs about as much as 2048 table cells (about 176 us against
  75 ns on a 2-core x86-64 sandbox).  Quench work is heavy-tailed (single
  draws with |B_c| = 16 took 39 s), so only the draws between the class's
  20th and 60th percentile are kept.
* ``pipeline-exactness``: the score is the boundary size B under the
  pipeline's default detection seed; every draw is kept.
* ``qaoa-p4``: the score is B under the graph's own seed; only graphs whose
  reduction shrinks the register (B < n) are kept, as in acceptance
  criterion 09.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from qubocut import community, graphs, solvers  # noqa: E402

POOL_FILE = BENCH_DIR / "pools.json"
MASTER_SEED = 20210119
CELLS_PER_SOLVE = 2048
# workload -> (n, k, graphs drawn) per class
DRAWS = {
    "reduce-sparse": ((60, 3, 400), (100, 3, 400), (60, 4, 400)),
    "pipeline-exactness": ((20, 3, 160), (22, 3, 160), (20, 4, 160), (22, 4, 160)),
    "qaoa-p4": ((12, 3, 200), (14, 3, 200)),
}
SPARSE_WINDOW = (20, 60)


def class_key(n: int, k: int) -> str:
    return f"n{n}-k{k}"


def detect(g, seed: int):
    return community.refine_boundary(g, community.detect_multilevel(g, seed=seed), seed=seed)


def quench_work(assignment) -> int:
    """Predicted quench cost in core solves: sum over c of 2**|B_c| (1 + 2**|C_c| / 2048)."""
    k = assignment.num_communities
    boundary = np.bincount(assignment.membership[assignment.boundary], minlength=k)
    core = np.bincount(assignment.membership[~assignment.boundary], minlength=k)
    solves = sum(1 << int(b) for b in boundary)
    cells = sum(1 << int(b + c) for b, c in zip(boundary, core))
    return int(solves + cells // CELLS_PER_SOLVE)


def boundary_size(assignment) -> int:
    return int(assignment.boundary.sum())


def screen(workload: str, n: int, k: int, draws: int) -> list[list[int]]:
    """``[score, graph seed]`` of the kept draws of one class, sorted."""
    rng = np.random.default_rng([MASTER_SEED, n, k])
    pipeline_seed = solvers.PipelineConfig().seed
    rows = []
    for gseed in (int(s) for s in rng.integers(0, 2**31 - 1, size=draws)):
        g = graphs.random_regular(n, k, gseed)
        if workload == "reduce-sparse":
            score = quench_work(detect(g, gseed))
        elif workload == "pipeline-exactness":
            score = boundary_size(detect(g, pipeline_seed))
        else:
            score = boundary_size(detect(g, gseed))
            if score >= n:
                continue
        rows.append([score, gseed])
    rows.sort()
    if workload == "reduce-sparse":
        lo, hi = np.percentile([r[0] for r in rows], SPARSE_WINDOW)
        rows = [r for r in rows if lo <= r[0] <= hi]
    return rows


def main() -> None:
    pools = {
        workload: {class_key(n, k): screen(workload, n, k, d) for n, k, d in classes}
        for workload, classes in DRAWS.items()
    }
    POOL_FILE.write_text(json.dumps(pools, separators=(",", ":")) + "\n")
    for workload, classes in pools.items():
        for key, rows in classes.items():
            print(f"{workload:20s} {key:8s} {len(rows):4d} kept, score {rows[0][0]}..{rows[-1][0]}")


if __name__ == "__main__":
    main()

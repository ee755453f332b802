"""Hunt for an instance where the solver's count is not the exact minimum,
on instances drawn to separate the two bandwidth modes.

Run from the repository root (about 14 s on two shared Xeon cores with
Python 3.11.7); each ``--seed`` draws a fresh batch of ``INSTANCES``:

    PYTHONPATH=src python -m tests.hunt_aggregate [--seed S]

Each draw is a ``GenConfig`` of up to 10^4 nodes: half of them path chains,
bandwidths from the largest weight to twice it (so every client fits its
own link, and a link fits one bundle but seldom several), and a capacity W
of 1-3x the largest weight (from a bundle that fills a server to a server
that takes a few). ``solve_instance`` is compared with ``CountLoadDP`` in
both modes, and each placement it returns must pass ``verify_placement``.
The script prints the instance count, how many instances have different
exact minimums in the two modes, and the number of mismatches. A mismatch
is a wrong count, a placement the verifier rejects, or a
``ContractViolationError``; for each it prints the failing ``GenConfig``,
and it then exits 1. It is not a Tier-1 test: the file has no ``test_``
prefix.
"""

from __future__ import annotations

import argparse
import random
import sys

from treeplace.errors import ContractViolationError, InfeasibleError
from treeplace.generator import SHAPES, GenConfig, generate
from treeplace.instance import MODE_AGGREGATE, MODE_PER_BUNDLE, MODES
from treeplace.solver import solve_instance
from treeplace.verifier import verify_placement
from tests.reference import CountLoadDP

SIZES = (3, 10, 30, 100, 300, 1000, 5000)  # skeleton sizes; clients at most as many again
SIZE_WEIGHTS = (20, 30, 25, 12, 8, 4, 1)
INSTANCES = 1500  # draws per seed


def draw(rng: random.Random, seed: int) -> GenConfig:
    internal = rng.choices(SIZES, SIZE_WEIGHTS)[0]
    heaviest = rng.randint(1, 8)
    shape = "path" if rng.random() < 0.5 else rng.choice(SHAPES)
    return GenConfig(
        seed=seed,
        internal=internal,
        # a chain has one childless node, so it may have few clients; the other
        # shapes need one client per childless node, and get one per node
        clients=rng.randint(1, internal) if shape == "path" else internal,
        capacity=rng.randint(heaviest, 3 * heaviest),
        shape=shape,
        weight_range=(rng.randint(0, heaviest // 2), heaviest),
        qos_range=(1, rng.randint(1, 12)),
        bandwidth_range=(heaviest, heaviest + rng.randint(0, heaviest)),
    )


def solver_count(inst, mode: str) -> int | str | None:
    """The solver's count, None if it finds the instance infeasible, or the
    text of a fault: a broken contract or a placement the verifier rejects."""
    try:
        result = solve_instance(inst, mode)
    except InfeasibleError:
        return None
    except ContractViolationError as exc:
        return f"{type(exc).__name__}: {exc}"
    report = verify_placement(inst, set(result.replicas), mode)
    if not report.feasible:
        return f"infeasible placement: {report.violations[0]}"
    return result.cardinality


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="seed of the config draws")
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    differ = feasible = 0
    mismatches: list[tuple[GenConfig, str, int | str | None, int | None]] = []
    for k in range(INSTANCES):
        cfg = draw(rng, seed=args.seed * 1_000_000 + k)
        inst = generate(cfg)
        exact = {}
        for mode in MODES:
            exact[mode] = CountLoadDP(inst, mode).minimum
            ours = solver_count(inst, mode)
            if ours != exact[mode]:
                mismatches.append((cfg, mode, ours, exact[mode]))
        feasible += exact[MODE_PER_BUNDLE] is not None
        differ += exact[MODE_PER_BUNDLE] != exact[MODE_AGGREGATE]
    print(f"instances {INSTANCES} (feasible per-bundle {feasible}), "
          f"modes differ {differ}, mismatches {len(mismatches)}")
    for cfg, mode, ours, exact_count in mismatches:
        print(f"MISMATCH {mode}: solver={ours} exact={exact_count} {cfg!r}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())

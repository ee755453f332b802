"""Command-line front end.

Subcommands: solve, verify, oracle, compare, gen, transform, inspect,
bench. Paths may be ``-`` for the standard streams. Exit status is 0 for
success/feasible, 2 for domain outcomes (infeasible instance, failed
verification, oracle found nothing, comparison disagreement), and 1 for
usage or internal errors. All emitted documents are key-sorted,
indented, newline-terminated JSON so byte-identical reruns are the norm.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from typing import TYPE_CHECKING

from .contribution import run_phase1
from .errors import (
    InfeasibleError,
    MalformedDocumentError,
    SolverError,
)
from .instance import (
    DEFAULT_MAX_INTERNAL,
    MODE_AGGREGATE,
    MODE_PER_BUNDLE,
    MODES,
    SHAPES,
    NetworkInstance,
    load_document,
    parse_instance,
    require_valid,
    serialize_instance,
)
from .placement import place_replicas, root_workload_check
from .solver import solve_instance
from .transform import star_to_document, transform_to_star
from .verifier import verify_placement

if TYPE_CHECKING:
    from .generator import GenConfig

AGGREGATE_NOTICE = (
    "notice: aggregate mode is an extension beyond the default per-bundle "
    "bandwidth semantics; its optimality is validated only empirically"
)


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedDocumentError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _dump(doc: dict) -> str:
    return _text(json.dumps, doc, indent=2, sort_keys=True) + "\n"


def _text(render, *args, **kwargs) -> str:
    """``render(...)``, where a sum of document integers past the digit limit for text is an error."""
    try:
        return render(*args, **kwargs)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise MalformedDocumentError(f"a number in the result has over {limit} digits") from None


def generate(cfg: GenConfig) -> NetworkInstance:
    """``generator.generate(cfg)``, loading the generator on the first call so
    that a solve never loads it; a module global, which perfbench's tracer wraps."""
    from .generator import generate as generate_instance

    return generate_instance(cfg)


def _mode_notice(mode: str) -> None:
    if mode == MODE_AGGREGATE:
        print(AGGREGATE_NOTICE, file=sys.stderr)


def _load_replica_list(text: str) -> list[str]:
    doc = load_document(text, "solution is not valid JSON")
    if not isinstance(doc, dict) or "replicas" not in doc:
        raise MalformedDocumentError("solution document must carry a replicas array")
    reps = doc["replicas"]
    if not isinstance(reps, list) or not all(isinstance(r, str) for r in reps):
        raise MalformedDocumentError("replicas must be an array of node ids")
    return reps


# --- subcommand bodies ----------------------------------------------------


def cmd_solve(args: argparse.Namespace) -> int:
    # A solve allocates many long-lived small objects and leaves only a few
    # hundred in reference cycles, so the cyclic collector would mostly
    # rescan live data: pause it for the command.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _solve(args)
    finally:
        if was_enabled:
            gc.enable()


def _solve(args: argparse.Namespace) -> int:
    inst = parse_instance(_read_text(args.instance))
    _mode_notice(args.mode)
    try:
        out = solve_instance(inst, mode=args.mode)
    except InfeasibleError as exc:
        doc = {
            "feasible": False,
            "mode": args.mode,
            "reason": exc.reason,
            "details": list(exc.details),
        }
        _write_text(args.out, _dump(doc))
        return 2

    # Independent self-check before anything is written, in the mode
    # solved for: aggregate feasibility implies per-bundle feasibility. A
    # failure here is a solver defect, not a property of the instance.
    report = verify_placement(inst, set(out.replicas), mode=args.mode)
    if not report.feasible:
        print(
            "SOLVER DEFECT: solution failed independent verification "
            f"({args.mode}): {report.violations[0]}",
            file=sys.stderr,
        )
        return 1

    doc = {
        "feasible": True,
        "mode": args.mode,
        "replicas": sorted(out.replicas),
        "count": out.cardinality,
    }
    if args.trace:
        doc["trace"] = [[node, idx, sorted(placed)] for node, idx, placed in out.trace]
    _write_text(args.out, _dump(doc))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    inst = parse_instance(_read_text(args.instance))
    replicas = _load_replica_list(_read_text(args.solution))
    report = verify_placement(inst, set(replicas), mode=args.mode)
    _write_text(args.out, _dump(report.to_document()))
    return 0 if report.feasible else 2


def cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import brute_force_min

    inst = parse_instance(_read_text(args.instance))
    result = brute_force_min(inst, mode=args.mode, max_internal=args.max_internal)
    doc = {
        "mode": args.mode,
        "feasible": result.feasible,
        "minimum": result.minimum,
        "witness": list(result.witness) if result.witness is not None else None,
        "optima": result.optima,
        "explored": result.explored,
    }
    _write_text(args.out, _dump(doc))
    return 0 if result.feasible else 2


def _compare_one(payload: tuple[int, int, int]) -> tuple[int, int | None, int | None]:
    from .generator import small_corpus_config
    from .oracle import brute_force_min

    seed, max_internal, max_clients = payload
    cfg = small_corpus_config(seed, max_internal=max_internal, max_clients=max_clients)
    inst = generate(cfg)
    try:
        ours = solve_instance(inst).cardinality
    except InfeasibleError:
        ours = None
    return seed, ours, brute_force_min(inst).minimum


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        if ":" in args.seeds:
            lo, hi = args.seeds.split(":", 1)
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = [int(args.seeds)]
    except ValueError:
        print(f"error: bad seed range {args.seeds!r}", file=sys.stderr)
        return 1
    if not seeds:
        print("error: empty seed range", file=sys.stderr)
        return 1
    payloads = [(s, args.max_internal, args.max_clients) for s in seeds]
    jobs = min(args.jobs, os.cpu_count() or 1)  # the pool starts every worker at once
    if jobs > 1:
        # imported here: the pool pulls in multiprocessing, which no other command needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_compare_one, payloads, chunksize=8))
    else:
        results = [_compare_one(p) for p in payloads]

    disagreements = 0
    for seed, ours, truth in sorted(results):
        if ours == truth:
            verdict = "infeasible" if ours is None else f"count={ours}"
            print(f"seed {seed}: agree {verdict}")
        else:
            disagreements += 1
            print(f"seed {seed}: DISAGREE solver={ours} oracle={truth}")
    print(f"agreed {len(results) - disagreements}/{len(results)}")
    return 0 if disagreements == 0 else 2


def _int_pair(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":", 1)
        return int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}") from exc


def cmd_gen(args: argparse.Namespace) -> int:
    from .generator import GenConfig, fictivize, generate_dual_role, parse_dual_role, serialize_dual_role

    if args.fictivize is not None:
        net = parse_dual_role(_read_text(args.fictivize))
        inst = fictivize(net)
        require_valid(inst)
        _write_text(args.out, serialize_instance(inst))
        return 0
    if args.dual_role:
        net = generate_dual_role(args.seed, args.internal, args.capacity)
        _write_text(args.out, serialize_dual_role(net))
        return 0
    cfg = GenConfig(
        seed=args.seed,
        internal=args.internal,
        clients=args.clients,
        capacity=args.capacity,
        shape=args.shape,
        branching=args.branching,
        weight_range=args.weights,
        qos_range=args.qos,
        bandwidth_range=args.bandwidth,
    )
    _write_text(args.out, serialize_instance(generate(cfg)))
    return 0


def cmd_transform(args: argparse.Namespace) -> int:
    inst = parse_instance(_read_text(args.instance))
    star = transform_to_star(inst)
    _write_text(args.out, star_to_document(star))
    return 0


def _fmt(value) -> str:
    if value == float("inf"):
        return "inf"
    return str(int(value))


def _render_tables(star, table) -> str:
    """Two fixed-width tables: leaf contributions, then internal rows C/e/m."""
    lines: list[str] = []
    depth = star.depth
    rows = {n: table.table(n) for n in table.nodes()}

    leaf_ids = sorted(node.id for node in star.leaves)
    if leaf_ids:
        c_rows = [rows[n].c_row for n in leaf_ids]
        grid = [["i"] + leaf_ids] + _grid_rows("{}", c_rows, max(map(len, c_rows)), _fmt)
        lines += ["leaf contributions C(v,i)", _layout(grid), ""]

    leaf_set = set(leaf_ids)
    internal_ids = sorted(
        (n for n in rows if n not in leaf_set),
        key=lambda n: (-depth[n], n),
    )
    c_rows = [rows[n].c_row for n in internal_ids]
    rng = max(map(len, c_rows))
    grid = [["row"] + internal_ids] + _grid_rows("C(v,{})", c_rows, rng, _fmt)
    e_rows = [rows[n].e_row for n in internal_ids]
    grid += _grid_rows("e(v,{})", e_rows, rng, lambda e_set: "{" + ",".join(e_set) + "}")
    grid.append(["m(t(v))"] + [_fmt(rows[n].m_value) for n in internal_ids])
    lines += ["internal nodes", _layout(grid)]
    return "\n".join(lines) + "\n"


def _grid_rows(label: str, columns: list, rng: int, fmt) -> list[list[str]]:
    """For each i < ``rng``: ``label.format(i)``, then ``fmt`` of each
    column's i-th entry, or "-" past the column's end."""
    return [
        [label.format(i)] + [fmt(col[i]) if i < len(col) else "-" for col in columns]
        for i in range(rng)
    ]


def _layout(grid: list[list[str]]) -> str:
    widths = [max(len(row[c]) for row in grid) for c in range(len(grid[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in grid
    )


def cmd_inspect(args: argparse.Namespace) -> int:
    inst = parse_instance(_read_text(args.instance))
    _mode_notice(args.mode)
    star = transform_to_star(inst)
    table = run_phase1(star, mode=args.mode)
    _write_text(args.out, _render_tables(star, table))
    return 0


# --- bench ----------------------------------------------------------------


def bench_config(n: int, qos: int, seed: int) -> GenConfig:
    """Feasible-by-construction config used for timing runs.

    Capacity is generous and bandwidth flat and wide, so runtime is
    dominated by the table computation rather than infeasibility
    handling; qos is fixed to pin the effective table range.
    """
    from .generator import GenConfig

    internal = max(1, (n * 2) // 5)
    clients = max(1, n - internal)
    return GenConfig(
        seed=seed,
        internal=internal,
        clients=clients,
        capacity=200,
        shape="balanced",
        branching=(2, 3),
        weight_range=(1, 3),
        qos_range=(qos, qos),
        bandwidth_range=(1000, 1000),
    )


BENCH_STAGES = ("parse", "transform", "phase1", "place", "root_check", "verify", "write")


def bench_stages(n: int, qos: int, seed: int = 7) -> tuple[int, list[float]]:
    """The node count and the seconds of each of ``BENCH_STAGES`` in one
    solve of a generated ~n-node document, from its text to the written
    result, with the collector paused as ``solve`` pauses it."""
    text = serialize_instance(generate(bench_config(n, qos, seed)))

    def lap(value):
        marks.append(time.perf_counter())
        return value

    was_enabled = gc.isenabled()
    gc.disable()
    marks = [time.perf_counter()]
    try:
        inst = lap(parse_instance(text))  # validation included
        star = lap(transform_to_star(inst))
        placement = lap(place_replicas(star, lap(run_phase1(star))))
        lap(root_workload_check(star, placement))
        lap(verify_placement(inst, set(placement.replicas)))
        doc = {"feasible": True, "mode": MODE_PER_BUNDLE,
               "replicas": list(placement.replicas), "count": placement.cardinality}
        lap(_write_text(os.devnull, _dump(doc)))
    finally:
        if was_enabled:
            gc.enable()
    return len(inst.ids), [b - a for a, b in zip(marks, marks[1:])]


def cmd_bench(args: argparse.Namespace) -> int:
    import resource  # only here, so that start-up imports what it did before

    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
        qos_values = [int(q) for q in args.qos.split(",") if q.strip()]
    except ValueError:
        print("error: sizes and qos must be comma-separated integers", file=sys.stderr)
        return 1
    if not sizes or not qos_values:
        print("error: empty bench sweep", file=sys.stderr)
        return 1
    if min(sizes) < 1:
        print("error: bench sizes must be at least 1", file=sys.stderr)
        return 1
    runs = []
    for qos in qos_values:
        for n in sizes:
            nodes, seconds = bench_stages(n, qos, args.seed)
            print(f"N={n} L={qos} t={sum(seconds):.3f}s ({nodes} nodes)")
            ns = [s / nodes * 1e9 for s in seconds]
            for stage, s, per_node in zip(BENCH_STAGES, seconds, ns):
                print(f"  {stage:<10} {s:9.4f}s {per_node:9.0f} ns/node")
            runs.append({"n": n, "qos": qos, "nodes": nodes, "seconds": dict(zip(BENCH_STAGES, seconds)),
                         "ns_per_node": dict(zip(BENCH_STAGES, ns))})
    maxrss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS (ru_maxrss) {maxrss_mib:.1f} MiB")
    if args.json:
        _write_text(args.json, _dump({"seed": args.seed, "ru_maxrss_mib": maxrss_mib, "runs": runs}))
    return 0


# --- parser wiring --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeplace",
        description="Minimum-replica placement on tree networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mode(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mode", choices=sorted(MODES), default=MODE_PER_BUNDLE)

    def add_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default="-", help="output path, - for stdout")

    p = sub.add_parser("solve", help="compute a minimum replica placement")
    p.add_argument("instance")
    add_mode(p)
    p.add_argument("--trace", action="store_true", help="include the placement trace")
    add_out(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a replica set against an instance")
    p.add_argument("instance")
    p.add_argument("solution")
    add_mode(p)
    add_out(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive minimum for small instances")
    p.add_argument("instance")
    add_mode(p)
    p.add_argument("--max-internal", type=int, default=DEFAULT_MAX_INTERNAL)
    add_out(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("compare", help="solver vs oracle over a seed sweep")
    p.add_argument("--seeds", required=True, help="single seed or LO:HI range")
    p.add_argument("--max-internal", type=int, default=8)
    p.add_argument("--max-clients", type=int, default=10)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gen", help="emit a random instance document")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--internal", type=int, default=6)
    p.add_argument("--clients", type=int, default=8)
    p.add_argument("--capacity", type=int, default=20)
    p.add_argument("--shape", choices=SHAPES, default="random")
    p.add_argument("--branching", type=_int_pair, default=(2, 3), metavar="LO:HI")
    p.add_argument("--weights", type=_int_pair, default=(1, 8), metavar="LO:HI")
    p.add_argument("--qos", type=_int_pair, default=(1, 4), metavar="LO:HI")
    p.add_argument("--bandwidth", type=_int_pair, default=(4, 20), metavar="LO:HI")
    p.add_argument("--dual-role", action="store_true", help="emit a dual-role document instead")
    p.add_argument(
        "--fictivize",
        metavar="PATH",
        help="rewrite a dual-role document into client/server form",
    )
    add_out(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("transform", help="emit the normalized star-tree document")
    p.add_argument("instance")
    add_out(p)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("inspect", help="render the contribution tables")
    p.add_argument("instance")
    add_mode(p)
    add_out(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("bench", help="per-stage timing sweep over generated documents")
    p.add_argument("--sizes", required=True, help="comma-separated node counts")
    p.add_argument("--qos", default="8", help="comma-separated qos levels")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--json", metavar="PATH", help="also write the figures as JSON")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage; remap to 1
        return 0 if exc.code in (0, None) else 1
    try:
        try:
            return args.func(args)
        except InfeasibleError as exc:  # transform, inspect; solve writes a document
            print(f"infeasible: {exc.reason}: {_text(str, list(exc.details))}", file=sys.stderr)
            return 2
    except (SolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer timing from outside the program.

``Tracer.install`` replaces the program's public functions, in the
modules that call them, with wrappers that record a span per call: its
total time, its self time (minus the spans it contains), the garbage
collector pauses inside it (from ``gc.callbacks``) and the process's
peak resident memory when it ends. Nothing inside the program changes.
"""

from __future__ import annotations

import gc
import math
import resource
import time
from collections import defaultdict

import treeplace.cli as cli
import treeplace.solver as solver
from treeplace.instance import validate_instance

# (module, attribute, span). Spans are named after pipeline stages; the
# verifier's span carries the mode it checks in.
WRAPPED = (
    (cli, "parse_instance", "parse"),
    (cli, "solve_instance", "solve"),
    (solver, "transform_to_star", "transform"),
    (solver, "run_phase1", "phase1"),
    (solver, "place_replicas", "place"),
    (solver, "root_workload_check", "root_check"),
    (cli, "verify_placement", "verify"),
    (cli, "_dump", "write"),
    (cli, "_write_text", "write"),
    (cli, "generate", "generate"),
    (cli, "serialize_instance", "serialize"),
)
# Stages for the memory figures, and for the gc figures with "cli", the
# time in no span.
STAGES = ("parse", "transform", "phase1", "place", "root_check", "verify",
          "solve", "write", "generate", "serialize")


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [span, time spent in child spans]
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.top_level = 0.0  # time in spans entered with an empty stack
        self.gc_pause: dict[str, float] = defaultdict(float)
        self.gc_count: dict[str, int] = defaultdict(int)
        self.rss_after: dict[str, float] = {}
        self.kept: dict[str, list] = defaultdict(list)
        self._gc_start = 0.0

    def install(self) -> None:
        for module, attr, span in WRAPPED:
            setattr(module, attr, self._wrap(getattr(module, attr), span))

    def _wrap(self, fn, span):
        perf = time.perf_counter

        def traced(*args, **kwargs):
            name = f"verify.{kwargs.get('mode', 'per-bundle')}" if span == "verify" else span
            self.stack.append([name, 0.0])
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = perf() - start
                _, inner = self.stack.pop()
                self.total[name] += spent
                self.self_time[name] += spent - inner
                if self.stack:
                    self.stack[-1][1] += spent
                else:
                    self.top_level += spent
                self.rss_after[span] = peak_rss_mib()
            self.kept[span].append(result)
            return result

        return traced

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        stage = self.stack[-1][0].split(".")[0] if self.stack else "cli"
        self.gc_pause[stage] += time.perf_counter() - self._gc_start
        self.gc_count[stage] += 1

    def gc_on(self) -> None:
        gc.callbacks.append(self._on_gc)

    def gc_off(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def metrics(self, op_s: float, parser_s: float, in_spans: float) -> dict[str, float]:
        """The per-layer figures of one traced operation, by metric name.

        ``in_spans`` is the time the operation spent in traced calls, so
        the rest of ``op_s`` is the CLI's own.
        """
        t = self.total
        kept = self.kept
        stars = [s for s in kept["transform"] if s is not None]
        nodes = sum(len(inst.nodes) for inst in kept["parse"])
        cells = inf_cells = equip_rows = 0
        for table in kept["phase1"]:
            for node in table.nodes():
                rows = table.table(node)
                cells += len(rows.c_row)
                inf_cells += sum(1 for c in rows.c_row if c == math.inf)
                equip_rows += sum(1 for e in rows.e_row if e)
        start = time.perf_counter()
        for inst in kept["parse"]:
            validate_instance(inst)
        validate_s = time.perf_counter() - start
        out = {
            "instance.parse_instance_s": t["parse"],
            "instance.validate_instance_s": validate_s,
            "instance.parse_ns_per_node": t["parse"] / nodes * 1e9 if nodes else 0.0,
            "instance.serialize_instance_s": t["serialize"],
            "transform.transform_to_star_s": t["transform"],
            "transform.ns_per_node": t["transform"] / nodes * 1e9 if nodes else 0.0,
            "contribution.run_phase1_s": t["phase1"],
            "contribution.ns_per_cell": t["phase1"] / cells * 1e9 if cells else 0.0,
            "placement.place_replicas_s": t["place"],
            "placement.root_workload_check_s": t["root_check"],
            "verifier.verify_placement_s.per-bundle": t["verify.per-bundle"],
            "verifier.verify_placement_s.aggregate": t["verify.aggregate"],
            "solver.solve_instance_s": t["solve"],
            "solver.self_s": self.self_time["solve"],
            "cli.build_parser_s": parser_s,
            "cli.write_s": t["write"],
            "cli.self_s": op_s - in_spans,
            "generator.generate_s": t["generate"],
            "instance.nodes": nodes,
            "transform.star_nodes": sum(len(s.nodes) for s in stars),
            "transform.eligible_leaves": sum(1 for s in stars for n in s.leaves if n.leaf.eligible),
            "transform.merged_leaves": sum(1 for s in stars for n in s.leaves if not n.leaf.eligible),
            "transform.max_depth": max((max(s.depth.values()) for s in stars), default=0),
            "contribution.L": max((s.max_leaf_qos for s in stars), default=0),
            "contribution.cells": cells,
            "contribution.inf_cells": inf_cells,
            "contribution.equip_rows": equip_rows,
            "placement.replicas": sum(p.cardinality for p in kept["place"]),
            "verifier.link_flow_entries": sum(len(r.link_flows) for r in kept["verify"]),
        }
        for stage in STAGES + ("cli",):
            out[f"gc.pause_s.{stage}"] = self.gc_pause[stage]
            out[f"gc.collections.{stage}"] = self.gc_count[stage]
        for stage in STAGES:
            out[f"rss_after_{stage}_mib"] = self.rss_after.get(stage, 0.0)
        return out

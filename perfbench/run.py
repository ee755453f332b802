"""The treeplace benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src`` directory. Inputs are made from ``--seed`` by ``docgen.py``.
Each round of a workload runs the program in fresh processes, one
operation at a time (a closed loop), and rounds repeat until ``--seconds``
have passed; every metric is the median over the run's rounds. After
the timed loop every output is checked by ``checker.py``. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``. A traced run alternates
untraced and traced rounds, reports the tracing overhead, and also
stores its metrics under the workload's name in ``perfbench/out/trace.json``.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import docgen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD_TIMEOUT_S = 150
# The calibration loop's time (child.calibrate) at the reference machine
# speed: the median measured when the benchmark landed. Every time metric
# is the measured time scaled by CALIBRATION_REF_S / (the loop's time in
# the same process just before and after the operation), which takes out
# the speed changes of shared cores. See README.md, "Noise".
CALIBRATION_REF_S = 0.35
TIMES = ("setup_s", "op_s", "solve_s")
SMALL_BATCH = 2_000  # instances per small-batch round, each solved in two modes

END_TO_END = {"setup_s": "s", "solve_s": "s", "solves_per_s": "1/s", "gen_s": "s",
              "peak_rss_mib": "MiB"}
# Per-layer metrics merged over a round's processes by max, not by sum.
MAXED = ("cli.build_parser_s", "transform.max_depth", "contribution.L")


class ChildFailed(Exception):
    pass


def spawn(spec: dict) -> dict:
    """Run one program process and return its report, with set-up time added."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{spec['op']} took over {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        lines = err.decode(errors="replace").strip().splitlines()
        raise ChildFailed(lines[-1] if lines else f"exit status {proc.returncode}")
    report = json.loads(out.decode().splitlines()[-1])
    if Path(report["treeplace"]) != SRC:
        raise ChildFailed(f"imported treeplace from {report['treeplace']}, not {SRC}")
    if report["rc"] != 0:
        raise ChildFailed(f"exit status {report['rc']}")
    report["setup_s"] = report["ready"] - start
    report["raw_op_s"] = report["op_s"]
    scale = CALIBRATION_REF_S / statistics.mean(report["calibration_s"])
    for key in TIMES:
        if key in report:
            report[key] *= scale
    report["write_doc_s"] = [t * scale for t in report.get("write_doc_s", [])]
    for key, value in report.get("layers", {}).items():
        if layer_unit(key) in ("s", "ns"):
            report["layers"][key] = value * scale
    return report


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """One workload run: its rounds, their figures and the faults found."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.dir = OUT / workload
        self.dir.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.faults: list[str] = []
        self.figures: dict[str, list[float]] = {}  # end-to-end samples
        self.layers: list[dict] = []  # per-layer metrics of each traced round

    def add(self, name: str, value: float) -> None:
        self.figures.setdefault(name, []).append(value)

    def fault(self, where: str, faults) -> None:
        self.faults += [f"{where}: {f}" for f in faults]

    def ops(self, count: int, ok: bool) -> None:
        self.attempted += count
        self.failed += 0 if ok else count

    def spawn_all(self, specs: list[dict], ops: int) -> list[dict] | None:
        """Run a round's processes in turn; None if one of them failed."""
        reports = []
        for spec in specs:
            try:
                reports.append(spawn(spec))
            except ChildFailed as exc:
                self.ops(ops, False)
                print(f"{self.workload}: {exc}", file=sys.stderr)
                return None
        self.ops(ops, True)
        for report in reports:
            self.add("setup_s", report["setup_s"])
            self.add("calibration_s", statistics.mean(report["calibration_s"]))
            self.add("raw_op_s", report["raw_op_s"])
        if specs[0].get("trace"):
            merged: dict[str, float] = {}
            for report in reports:
                for key, value in report["layers"].items():
                    if key in MAXED or key.startswith("rss_after_"):
                        merged[key] = max(merged.get(key, 0), value)
                    else:
                        merged[key] = merged.get(key, 0) + value
            self.layers.append(merged)
        return reports


# --- workloads ---------------------------------------------------------------
#
# Each workload class prepares inputs from the seed, runs one round per
# call of ``round`` and checks what the rounds wrote in ``check``.


class SolveDocument:
    """``treeplace solve DOC --out PATH`` of one large generated document."""

    def __init__(self, run: Run, make):
        self.run = run
        capacity, nodes = make(run.seed)
        self.doc = {"W": capacity, "nodes": nodes}
        self.text = docgen.document_text(capacity, nodes)
        self.path = run.dir / "input.json"
        self.path.write_text(self.text, encoding="utf-8")
        self.results: list[Path] = []

    def round(self, k: int, traced: bool) -> None:
        result = self.run.dir / f"result-{k}.json"
        rewrite = self.run.dir / f"rewrite-{k}.json"
        spec = {"op": "cli", "argv": ["solve", str(self.path), "--out", str(result)],
                "rewrite": str(rewrite), "trace": traced}
        reports = self.run.spawn_all([spec], ops=2)
        if reports is None:
            return
        (rep,) = reports
        self.results.append(result)
        if rewrite.read_text(encoding="utf-8") != self.text:
            self.run.fault("rewrite", ["serialize_instance changed the document"])
        if not traced:
            self.run.add("solve_s", rep["op_s"])
            self.run.add("solves_per_s", 1.0 / (rep["setup_s"] + rep["op_s"]))
            self.run.add("gen_s", rep["write_doc_s"][0])
            self.run.add("peak_rss_mib", rep["rss_mib"])
        self.run.add("traced_solve_s" if traced else "untraced_solve_s", rep["op_s"])

    def check(self) -> None:
        check_results(self.run, checker.Instance(self.doc), self.results)


def check_results(run: Run, inst: checker.Instance, results: list[Path]) -> None:
    """Check the first result; every later round must write the same bytes."""
    if not results:
        return
    first = json.loads(results[0].read_text(encoding="utf-8"))
    run.fault("solve", [f"{c}: {m}" for c, m in
                        checker.solution_faults(inst, first, checker.PER_BUNDLE)])
    if len({digest(p) for p in results}) != 1:
        run.fault("solve", ["rounds wrote different results"])


class Gen:
    """``treeplace gen`` of one document, then ``treeplace solve`` of it."""

    def __init__(self, run: Run):
        self.run = run
        mk = docgen.GEN
        self.args = ["gen", "--seed", str(run.seed), "--internal", str(mk["internal"]),
                     "--clients", str(mk["clients"]), "--capacity", str(mk["capacity"]),
                     "--shape", mk["shape"], "--branching", "%d:%d" % mk["branching"],
                     "--weights", "%d:%d" % mk["weights"], "--qos", "%d:%d" % mk["qos"],
                     "--bandwidth", "%d:%d" % mk["bandwidth"]]
        self.docs: list[Path] = []
        self.results: list[Path] = []

    def round(self, k: int, traced: bool) -> None:
        doc = self.run.dir / f"doc-{k}.json"
        result = self.run.dir / f"result-{k}.json"
        specs = [{"op": "cli", "argv": self.args + ["--out", str(doc)], "trace": traced},
                 {"op": "cli", "argv": ["solve", str(doc), "--out", str(result)], "trace": traced}]
        reports = self.run.spawn_all(specs, ops=2)
        if reports is None:
            return
        gen, solve = reports
        self.docs.append(doc)
        self.results.append(result)
        if not traced:
            self.run.add("gen_s", gen["op_s"])
            self.run.add("peak_rss_mib", gen["rss_mib"])
            self.run.add("solve_s", solve["op_s"])
            self.run.add("solves_per_s", 1.0 / (solve["setup_s"] + solve["op_s"]))
        self.run.add("traced_solve_s" if traced else "untraced_solve_s", solve["op_s"])

    def check(self) -> None:
        if not self.docs:
            return
        mk = docgen.GEN
        doc = json.loads(self.docs[0].read_text(encoding="utf-8"))
        self.run.fault("gen", checker.document_faults(
            doc, internal=mk["internal"], clients=mk["clients"], capacity=mk["capacity"],
            weights=mk["weights"], qos=mk["qos"], bandwidth=mk["bandwidth"]))
        if len({digest(p) for p in self.docs}) != 1:
            self.run.fault("gen", ["repetitions wrote different bytes"])
        check_results(self.run, checker.Instance(doc), self.results)


class SmallBatch:
    """Oracle-sized instances, each solved in both modes in one process."""

    def __init__(self, run: Run):
        self.run = run
        self.instances = docgen.small_batch(run.seed, SMALL_BATCH)
        self.texts = [docgen.document_text(c, nodes) for c, nodes in self.instances]
        self.docs = run.dir / "batch.json"
        self.docs.write_text(json.dumps(self.texts), encoding="utf-8")
        self.results: list[Path] = []

    def round(self, k: int, traced: bool) -> None:
        result = self.run.dir / f"results-{k}.json"
        spec = {"op": "batch", "docs": str(self.docs), "results": str(result), "trace": traced}
        solves = 2 * len(self.texts)
        reports = self.run.spawn_all([spec], ops=solves + len(self.texts))
        if reports is None:
            return
        (rep,) = reports
        self.results.append(result)
        if rep["rewrites_equal"] != len(self.texts):
            self.run.fault("rewrite", [f"{len(self.texts) - rep['rewrites_equal']} documents changed"])
        if not traced:
            self.run.add("solve_s", rep["solve_s"])
            self.run.add("solves_per_s", solves / rep["op_s"])
            self.run.add("gen_s", statistics.mean(rep["write_doc_s"]))
            self.run.add("peak_rss_mib", rep["rss_mib"])
        self.run.add("traced_solve_s" if traced else "untraced_solve_s", rep["solve_s"])

    def check(self) -> None:
        if not self.results:
            return
        outputs = json.loads(self.results[0].read_text(encoding="utf-8"))
        modes = (checker.PER_BUNDLE, checker.AGGREGATE)
        pairs = [(c, nodes, mode) for c, nodes in self.instances for mode in modes]
        for k, ((capacity, nodes, mode), text) in enumerate(zip(pairs, outputs)):
            inst = checker.Instance({"W": capacity, "nodes": nodes})
            found = checker.solution_faults(inst, json.loads(text), mode,
                                            optimum=checker.exhaustive_min(inst, mode))
            self.run.fault(f"instance {k // 2} {mode}", [f"{c}: {m}" for c, m in found])
        if len({digest(p) for p in self.results}) != 1:
            self.run.fault("small-batch", ["rounds wrote different results"])


WORKLOADS = {
    "broad": lambda run: SolveDocument(run, docgen.broad),
    "deep": lambda run: SolveDocument(run, docgen.deep),
    "small-batch": SmallBatch,
    "gen": Gen,
}


def median(run: Run, name: str) -> float:
    return statistics.median(run.figures[name])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "treeplace" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'treeplace'}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, bool(args.trace))
    workload = WORKLOADS[args.workload](run)
    start = time.perf_counter()
    k = 0
    while (k == 0 or time.perf_counter() - start < args.seconds) and not run.failed:
        workload.round(k, traced=False)
        if run.trace:
            workload.round(k, traced=True)
        k += 1
    if run.attempted == run.failed:
        print("error: every operation failed", file=sys.stderr)
        return 1
    workload.check()
    print(f"{run.workload} seed {run.seed}: {k} rounds, median calibration "
          f"{median(run, 'calibration_s'):.4f} s, median unscaled operation "
          f"{median(run, 'raw_op_s'):.4f} s", file=sys.stderr)
    for fault in run.faults[:20]:
        print(f"FAULT {fault}", file=sys.stderr)

    if run.trace:
        keys = run.layers[0].keys()
        values = {key: statistics.median(layer[key] for layer in run.layers) for key in keys}
        values["trace.solve_s_traced"] = median(run, "traced_solve_s")
        values["trace.solve_s_untraced"] = median(run, "untraced_solve_s")
        values["trace.overhead_ratio"] = values["trace.solve_s_traced"] / values["trace.solve_s_untraced"]
        metrics = {key: {"value": value, "unit": layer_unit(key)} for key, value in values.items()}
        store_trace(args, metrics)
    else:
        metrics = {name: {"value": median(run, name), "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not run.faults, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.startswith("trace.solve_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if ".ns_per_" in name or "_ns_per_" in name:
        return "ns"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def store_trace(args, metrics: dict) -> None:
    """Keep each workload's latest traced metrics in one JSON file."""
    path = OUT / "trace.json"
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    data[args.workload] = {"seed": args.seed, "seconds": args.seconds,
                           "metrics": {k: v["value"] for k, v in metrics.items()}}
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())

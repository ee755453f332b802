"""One program process of the benchmark: start up, do one operation, report.

    python3 perfbench/child.py SPEC

with the program's ``src`` directory on PYTHONPATH. SPEC is a JSON
object naming the operation:

* ``{"op": "cli", "argv": [...]}`` runs ``treeplace ARGV`` through the
  program's own ``main``, as the ``treeplace`` command does; with
  ``"rewrite": PATH`` it then writes the parsed instance back out with
  the program's ``serialize_instance``;
* ``{"op": "batch", "docs": PATH, "results": PATH}`` solves every
  document of a JSON list in both modes through the calls
  ``treeplace solve`` makes, then writes each instance back out.

``"trace": true`` wraps the program's functions (see tracing.py). The
last line of standard output is one JSON object: the monotonic clock
reading when start-up ended, the operation's timings, its exit status,
the peak resident memory when it ended and the times of the calibration
loop run just before and just after it. Start-up covers the
interpreter, ``import treeplace`` and building the CLI parser, before
any input is read.
"""

from __future__ import annotations

import time

import treeplace.cli as cli

_IMPORTED = time.perf_counter()
cli.build_parser()
READY = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer, peak_rss_mib  # noqa: E402
from treeplace.instance import parse_instance  # noqa: E402

MODES = ("per-bundle", "aggregate")


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of dict and tuple work.

    Run just before and just after the operation, so that the benchmark
    can express the operation's time at a reference machine speed. The
    collector is off and the loop's memory small, so neither the
    program's heap nor its peak memory touches the figure.
    """
    gc.disable()
    start = time.perf_counter()
    for _ in range(160):
        table = {}
        for i in range(2_500):
            table[f"n{i:06d}"] = (i, i & 7)
        total = 0
        for key, (i, j) in table.items():
            total += i * j + len(key)
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def solve_like_cli(text: str, mode: str) -> str:
    """``treeplace solve`` on a document text, as ``cmd_solve`` does it."""
    inst = cli.parse_instance(text)
    try:
        out = cli.solve_instance(inst, mode=mode)
    except cli.InfeasibleError as exc:
        return cli._dump({"feasible": False, "mode": mode, "reason": exc.reason,
                          "details": list(exc.details)})
    for check in ("per-bundle", "aggregate") if mode == "aggregate" else ("per-bundle",):
        if not cli.verify_placement(inst, set(out.replicas), mode=check).feasible:
            raise RuntimeError(f"solution failed independent verification ({check})")
    return cli._dump({"feasible": True, "mode": mode, "replicas": sorted(out.replicas),
                      "count": out.cardinality})


def run_cli(spec: dict, report: dict, tracer: Tracer | None) -> None:
    parsed = []
    parse = cli.parse_instance

    def keep(text):  # holds on to the instance for the rewrite
        parsed.append(parse(text))
        return parsed[-1]

    if spec.get("rewrite"):
        cli.parse_instance = keep
    start = time.perf_counter()
    report["rc"] = cli.main(spec["argv"])
    report["op_s"] = time.perf_counter() - start
    report["in_spans"] = tracer.top_level if tracer else 0.0
    report["rss_mib"] = peak_rss_mib()
    if spec.get("rewrite") and parsed:
        start = time.perf_counter()
        text = cli.serialize_instance(parsed[0])
        with open(spec["rewrite"], "w", encoding="utf-8") as fh:
            fh.write(text)
        report["write_doc_s"] = [time.perf_counter() - start]


def run_batch(spec: dict, report: dict, tracer: Tracer | None) -> None:
    with open(spec["docs"], encoding="utf-8") as fh:
        docs = json.load(fh)
    results, latencies = [], []
    perf = time.perf_counter
    start = perf()
    for text in docs:
        for mode in MODES:
            t0 = perf()
            results.append(solve_like_cli(text, mode))
            latencies.append(perf() - t0)
    report["op_s"] = perf() - start
    report["in_spans"] = tracer.top_level if tracer else 0.0
    report["rss_mib"] = peak_rss_mib()
    report["rc"] = 0
    report["solve_s"] = statistics.median(latencies)
    insts = [parse_instance(text) for text in docs]
    write_s, same = [], 0
    for inst, text in zip(insts, docs):
        t0 = perf()
        again = cli.serialize_instance(inst)
        write_s.append(perf() - t0)
        same += again == text
    report["write_doc_s"] = write_s
    report["rewrites_equal"] = same
    with open(spec["results"], "w", encoding="utf-8") as fh:
        json.dump(results, fh)


def main() -> int:
    spec = json.loads(sys.argv[1])
    report = {"ready": READY, "parser_s": READY - _IMPORTED,
              "treeplace": os.path.dirname(os.path.dirname(cli.__file__))}
    report["calibration_s"] = [calibrate()]
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        tracer.install()
        tracer.gc_on()
    try:
        (run_batch if spec["op"] == "batch" else run_cli)(spec, report, tracer)
    finally:
        if tracer is not None:
            tracer.gc_off()
    report["calibration_s"].append(calibrate())
    if tracer is not None:
        report["layers"] = tracer.metrics(report["op_s"], report["parser_s"], report["in_spans"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

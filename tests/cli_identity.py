"""Check that two checkouts' CLIs give the same bytes: stdout, stderr and
exit status of every command.

Run from the repository root, naming the other checkout's ``src``:

    PYTHONPATH=src python -m tests.cli_identity OTHER/src [--document PATH ...]

Each command runs in a fresh ``python -m treeplace.cli`` subprocess, once
with this checkout's ``src`` on ``PYTHONPATH`` and once with OTHER's.
The documents are both fixtures, ``tests/golden/random300.json`` and one
generated 10^4-node document per shape (the output of this checkout's
``gen``); with ``--document``, only the paths given. Per document the
commands are ``solve`` in both modes, with and without ``--trace``;
``inspect`` in both modes; ``transform``; and ``verify`` in both modes,
of OTHER's solution in that mode and of that solution minus its first
replica. Then come ``gen`` (the three 10^4-node documents, or the
defaults with ``--document``), ``gen --dual-role`` and ``gen
--fictivize`` of that dual-role document.

It prints one ``MISMATCH`` line per stream that differs, then the totals,
and exits 1 on any mismatch. The full run, 71 commands, takes about 16 s
on two shared Xeon cores. It is not a Tier-1 test: the file has no
``test_`` prefix.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

from treeplace.instance import MODES, SHAPES

ROOT = pathlib.Path(__file__).resolve().parent.parent
OWN_SRC = ROOT / "src"
DOCUMENTS = (ROOT / "fixtures" / "worked_example.json", ROOT / "fixtures" / "shared_link.json",
             ROOT / "tests" / "golden" / "random300.json")
# 4,000 internal nodes and 6,000 clients, feasible in both modes
GENERATED = ("--internal", "4000", "--clients", "6000", "--capacity", "60", "--weights", "0:8",
             "--qos", "1:12", "--bandwidth", "8:40", "--seed", "1")
DUAL_ROLE = ("--dual-role", "--internal", "10000", "--capacity", "40", "--seed", "8")
STREAMS = ("exit status", "stdout", "stderr")


def _run(src: pathlib.Path, argv: tuple[str, ...]) -> tuple[int, bytes, bytes]:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "treeplace.cli", *argv], env=env, capture_output=True,
                          timeout=300)  # each command takes about a second
    return proc.returncode, proc.stdout, proc.stderr


class Comparison:
    """Runs each command on both trees at once and records what differs."""

    def __init__(self, other: pathlib.Path):
        self.other = other
        self.commands = 0
        self.mismatches = 0
        self.pool = ThreadPoolExecutor(2)

    def __call__(self, *argv: str) -> tuple[tuple[int, bytes, bytes], tuple[int, bytes, bytes]]:
        """Both trees' ``(exit status, stdout, stderr)``, this checkout's first."""
        ours, theirs = self.pool.map(_run, (OWN_SRC, self.other), (argv, argv))
        self.commands += 1
        for stream, a, b in zip(STREAMS, ours, theirs):
            if a != b:
                self.mismatches += 1
                print(f"MISMATCH {stream}: treeplace {' '.join(argv)}", flush=True)
        return ours, theirs


def compare_document(run: Comparison, doc: pathlib.Path, scratch: pathlib.Path) -> None:
    path = str(doc)
    for mode in sorted(MODES):
        run("solve", path, "--mode", mode, "--trace")
        _, (_, solved, _) = run("solve", path, "--mode", mode)
        replicas = json.loads(solved).get("replicas", [])
        for name, kept in (("full", replicas), ("short", replicas[1:])):
            solution = scratch / f"{doc.stem}.{mode}.{name}.json"
            solution.write_text(json.dumps({"replicas": kept}), encoding="utf-8")
            run("verify", path, str(solution), "--mode", mode)
        run("inspect", path, "--mode", mode)
    run("transform", path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=pathlib.Path, help="the other checkout's src directory")
    parser.add_argument("--document", type=pathlib.Path, action="append",
                        help="compare on this document only (repeatable)")
    args = parser.parse_args(argv)
    run = Comparison(args.other.resolve())
    with tempfile.TemporaryDirectory() as tmp:
        scratch = pathlib.Path(tmp)
        documents = list(args.document or DOCUMENTS)
        if args.document:
            run("gen")
            (_, dual_role, _), _ = run("gen", "--dual-role")
        else:
            for shape in SHAPES:
                (_, text, _), _ = run("gen", "--shape", shape, *GENERATED)
                documents.append(scratch / f"generated-{shape}.json")
                documents[-1].write_bytes(text)
            (_, dual_role, _), _ = run("gen", *DUAL_ROLE)
        (scratch / "dual-role.json").write_bytes(dual_role)
        run("gen", "--fictivize", str(scratch / "dual-role.json"))
        for doc in documents:
            compare_document(run, doc, scratch)
    run.pool.shutdown()
    print(f"commands {run.commands} (each on both trees), mismatches {run.mismatches}")
    return 1 if run.mismatches else 0


if __name__ == "__main__":
    sys.exit(main())

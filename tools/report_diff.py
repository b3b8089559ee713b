#!/usr/bin/env python3
"""Byte-compare what the ``uuqc`` command writes, on two source trees.

Usage, from the repository root, with a checkout of the commit to compare
against (``git clone`` or ``git archive``) in ``PARENT``:

    python3 tools/report_diff.py --before PARENT/src --after src [--seeds 1,2,3]

The jobs are those of the benchmark's ``cli`` workload: for each seed,
``POOL_ROUNDS["cli"]`` rounds of ``perfbench/wl_cli.build_round`` drawn
from ``numpy.random.default_rng(seed)``, as ``perfbench/run.py`` builds
them, with their documents written into a temporary directory by the
``uuqc`` of ``--before``.  Nothing under ``perfbench/`` is written.  To them
come the error-path children: a missing file, a matrix of ``1e200``
entries, a noise off the code's physical space, ``dense-code --D 1``,
``--help``, no command and an unknown command.

Each job runs as a fresh ``python -m uuqc`` child per tree, with that
tree's ``src`` first on ``PYTHONPATH`` and one BLAS thread.  The tool
compares the exit code, stdout, stderr and the sha256 of the ``--out``
report, prints one line per job that differs, with the first differing
byte offset of each differing output, and exits 1 on any difference,
0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _perfbench(src: str):
    """``(run, wl_cli, common)`` of ``perfbench/``, with ``uuqc`` imported
    from ``src``; no bytecode is written next to them."""
    sys.dont_write_bytecode = True
    for path in (PERFBENCH, os.path.abspath(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    # run sets one BLAS thread in os.environ, which the children inherit.
    import common
    import run
    import wl_cli

    return run, wl_cli, common


def cli_jobs(seed: int, workdir: str, src: str) -> list:
    """``(name, argv, out)`` for every job of the seeded ``cli`` rounds,
    ``out`` being the report path that ``argv`` passes to ``--out``."""
    import numpy as np

    run, wl_cli, _ = _perfbench(src)
    argvs = []

    def record(argv):
        argvs.append(argv)
        return 0, None

    rng = np.random.default_rng(seed)
    jobs = []
    for r in range(run.POOL_ROUNDS["cli"]):
        for i, job in enumerate(wl_cli.build_round(rng, workdir, f"s{seed}r{r}", record)):
            job.run()
            jobs.append((f"seed {seed} round {r} job {i} {job.kind}", argvs[-1], argvs[-1][-1]))
    return jobs


def error_jobs(workdir: str, src: str) -> list:
    """``(name, argv, None)`` for the children that must fail or print usage."""
    import numpy as np

    _, _, common = _perfbench(src)

    def doc(name, content):
        path = os.path.join(workdir, f"err-{name}")
        common.write_doc(path, content)
        return path

    code = doc("code.json", common.code_doc(np.eye(4)[:, :2]))
    return [
        ("missing file", ["check-uum", os.path.join(workdir, "missing.json")], None),
        ("1e200 entries", ["check-uum", doc("huge.json", common.matrix_doc(np.full((2, 2), 1e200)))], None),
        ("noise off the physical space", ["kl-check", code, doc("off.json", common.channel_doc([np.eye(3)]))],
         None),
        ("dense-code --D 1", ["dense-code", "--D", "1", "--lambdas2", "1.0"], None),
        ("--help", ["--help"], None),
        ("no command", [], None),
        ("unknown command", ["frobnicate"], None),
    ]


def run_child(src: str, argv: list, out: str | None) -> dict:
    """Exit code, stdout, stderr and report bytes (``None`` if none was
    written) of one ``python -m uuqc`` child importing ``uuqc`` from ``src``."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src) + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-m", "uuqc", *argv], env=env, capture_output=True, timeout=600)
    report = None
    if out is not None and os.path.exists(out):
        with open(out, "rb") as fh:
            report = fh.read()
        # The other tree's run must write its own report.
        os.remove(out)
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr, "report": report}


def first_difference(a: bytes, b: bytes) -> int:
    """Offset of the first byte where ``a`` and ``b`` differ (the shorter
    length when one is a prefix of the other)."""
    n = min(len(a), len(b))
    return next((i for i in range(n) if a[i] != b[i]), n)


def _sha(data: bytes | None) -> str:
    return "none" if data is None else hashlib.sha256(data).hexdigest()[:12]


def differences(before: dict, after: dict) -> list:
    """What differs between two ``run_child`` results, one phrase each."""
    found = []
    if before["exit"] != after["exit"]:
        found.append(f"exit {before['exit']} -> {after['exit']}")
    for stream in ("stdout", "stderr"):
        if before[stream] != after[stream]:
            found.append(f"{stream} differs at byte {first_difference(before[stream], after[stream])}")
    a, b = before["report"], after["report"]
    if a != b:
        where = "" if a is None or b is None else f", first differing byte {first_difference(a, b)}"
        found.append(f"report sha256 {_sha(a)} -> {_sha(b)}{where}")
    return found


def compare(before: str, after: str, jobs: list) -> list:
    """One line per job whose children on the two trees differ."""
    lines = []
    for name, argv, out in jobs:
        found = differences(run_child(before, argv, out), run_child(after, argv, out))
        if found:
            lines.append(f"{name}: {'; '.join(found)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", required=True, help="src directory of the commit compared against")
    parser.add_argument("--after", required=True, help="src directory of the change")
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated seeds of the cli rounds")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    for src in (args.before, args.after):
        if not os.path.isfile(os.path.join(src, "uuqc", "__main__.py")):
            parser.error(f"no uuqc sources under {src}")

    with tempfile.TemporaryDirectory() as workdir:
        jobs = [job for seed in seeds for job in cli_jobs(seed, workdir, args.before)]
        jobs += error_jobs(workdir, args.before)
        lines = compare(args.before, args.after, jobs)
    for line in lines:
        print(line)
    print(f"{len(jobs)} jobs, {len(lines)} differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())

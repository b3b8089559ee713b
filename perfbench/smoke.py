"""Smoke test of the benchmark itself.

Runs each workload for one second, timed and traced, and asserts that no
job failed and that every metric named in BENCHMARK.json is printed with its
unit.  Also checks that the benchmark refuses to run without the sources
and that the tracer patches the names modules import from each other.

    python3 perfbench/smoke.py            # or: python3 -m pytest perfbench/smoke.py

It is not part of the repository's test suite: it takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _check_workload(workload: str):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = _run(workload, trace)
        assert out.returncode == 0, out.stderr
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        assert result["failed"] == 0 and result["correct"], out.stdout
        assert any(line.startswith("failed_frac = 0 ") for line in lines)
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, set(got) ^ set(want)
        for name, unit in want.items():
            assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines), name


def test_certify():
    _check_workload("certify")


def test_qec():
    _check_workload("qec")


def test_cli():
    _check_workload("cli")


def test_refuses_without_sources():
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=WORK)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        out = _run("certify", 0, cwd=tmp)
        assert out.returncode != 0
        assert out.stdout.strip() == ""
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def test_tracer_patches_imported_bindings():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import uuqc.cli
    from tracing import Tracer

    bindings = [
        (uuqc.unambiguous, "apply"),
        (uuqc.entanglement, "certify_uuqc"),
        (uuqc.qec, "choi_state"),
        (uuqc.cli, "doc_to_channel"),
        (uuqc, "certify_uuqc"),
    ]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(hasattr(getattr(mod, name), "__wrapped__") for mod, name in bindings)
    finally:
        tracer.uninstall()
    assert not any(hasattr(getattr(mod, name), "__wrapped__") for mod, name in bindings)


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    sys.exit(1 if failed else 0)

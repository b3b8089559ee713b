"""``tools/report_diff.py``: the same tree on both sides reads no difference,
and a tree whose command behaves otherwise is named."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def _tool():
    spec = importlib.util.spec_from_file_location("report_diff", ROOT / "tools" / "report_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_tree_reads_no_difference(tmp_path):
    tool = _tool()
    errors = {name: (name, argv, out) for name, argv, out in tool.error_jobs(str(tmp_path), SRC)}
    cli = tool.cli_jobs(1, str(tmp_path), SRC)
    jobs = [next(job for job in cli if job[0].endswith(f" {kind}")) for kind in ("schmidt", "ec-prob")]
    jobs += [errors["1e200 entries"], errors["unknown command"]]
    assert tool.compare(SRC, SRC, jobs) == []
    # every report was read and removed, so a later run writes its own
    assert not any(Path(out).exists() for _, _, out in jobs if out)


def test_a_changed_command_is_named(tmp_path):
    tool = _tool()
    fake = tmp_path / "src" / "uuqc"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("")
    (fake / "__main__.py").write_text("import sys\nsys.stderr.write('usage\\n')\nsys.exit(3)\n")
    lines = tool.compare(SRC, str(fake.parent), [("--help", ["--help"], None)])
    assert len(lines) == 1 and lines[0].startswith("--help: exit 0 -> 3; stdout differs at byte 0")


def test_first_difference_and_report_phrases():
    tool = _tool()
    assert tool.first_difference(b"abc", b"abd") == 2
    assert tool.first_difference(b"ab", b"abc") == 2
    same = {"exit": 0, "stdout": b"", "stderr": b"ok\n", "report": b'{"p": 0.5}\n'}
    assert tool.differences(same, dict(same)) == []
    changed = dict(same, report=b'{"p": 0.50000000000000011}\n')
    (phrase,) = tool.differences(same, changed)
    assert phrase.startswith("report sha256 ") and phrase.endswith("first differing byte 9")
    assert tool.differences(same, dict(same, report=None))[0].endswith("-> none")

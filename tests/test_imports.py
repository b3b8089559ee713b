"""Import contracts of the package.

- Every name a library module imports is used there, or its line says why
  not.  No linter ships with the project, so this is its unused-import
  check: a name imported in ``src/uuqc/*.py`` must be read somewhere in the
  module, unless the import's line carries ``# noqa``.
- ``uuqc`` is a lazy namespace: ``import uuqc`` loads no submodule, and each
  exported name resolves, on first access, to the very object of its home
  module.
- ``python -m uuqc <cmd>`` loads only the modules that command runs, so a
  stray top-level import cannot quietly bring back the start-up cost of the
  others.
- ``uuqc.__main__.main`` is the one command-line entry point, and only it
  switches off the cyclic garbage collector; ``python -m uuqc`` and the
  script entry give the same report bytes, exit code and stderr as
  ``uuqc.cli.dispatch``.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uuqc
from uuqc.channels import KrausChannel
from uuqc.cli import dispatch
from uuqc.densecode import SharedState, optimal_protocol, optimal_receiver
from uuqc.formats import channel_to_doc, code_to_doc, dump_json, ket_to_doc, matrix_to_doc
from uuqc.qec import CodeSpec

from builders import maximally_entangled_ket

SRC = Path(__file__).resolve().parent.parent / "src" / "uuqc"
MODULES = sorted(SRC.glob("*.py"))

# The public names of the package root, by home module.
EXPORTS = {
    "channels": ["KrausChannel", "PhysicalityReport", "apply", "choi_state", "compose", "is_physical", "povm_of"],
    "densecode": ["BoundReport", "DenseCodingProtocol", "SharedState", "SimulationResult", "capacity",
                  "optimal_protocol", "optimal_receiver", "simulate", "verify_protocol_bound", "weyl_operators"],
    "entanglement": ["SchmidtForm", "TeleportCertificate", "check_mixed_nonzero", "conversion_probability",
                     "is_rank_d_ues", "schmidt", "search_mixed_nonzero", "teleport_probability_pure",
                     "teleportation_parts", "ues_to_uuqc", "uuqc_to_ues"],
    "linalg": ["DEFAULT_TOL", "FactoredPair", "SubspaceIsometry", "factor_as_tensor", "partial_trace",
               "random_unitary", "shift_clock_unitaries", "tensor_product"],
    "qec": ["CodeSpec", "CorrectionReport", "KlReport", "diagonalize_errors", "kl_check",
            "meets_certainty_condition", "noise_choi_state", "standard_recovery",
            "unambiguous_correction_probability", "verify_correction_uuqc"],
    "unambiguous": ["UumCertificate", "UuqcCertificate", "certify_uum", "certify_uuqc", "extend_by_identity",
                    "probability_profile", "refine", "restrict_operator"],
}


def _unused_imports(path: Path) -> list:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if "# noqa" not in lines[alias.lineno - 1]:
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path) == []


def _child(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``args`` that imports ``uuqc`` from this tree."""
    src = str(SRC.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120,
                          **kwargs)


def _fresh_modules(code: str, *argv: str) -> list:
    """Run ``code`` in a fresh interpreter that imports ``uuqc`` from this
    tree; return the JSON value its last stdout line prints."""
    return json.loads(_child("-c", code, *argv, check=True).stdout.splitlines()[-1])


def test_root_exports_todays_names():
    assert len(uuqc.__all__) == len(set(uuqc.__all__)) == 54
    assert set(uuqc.__all__) == {name for names in EXPORTS.values() for name in names}


@pytest.mark.parametrize("module", EXPORTS)
def test_names_resolve_to_their_home_objects(module):
    home = importlib.import_module(f"uuqc.{module}")
    assert uuqc.__getattr__(module) is home
    assert getattr(uuqc, module) is home
    for name in EXPORTS[module]:
        assert uuqc.__getattr__(name) is getattr(home, name)
        assert getattr(uuqc, name) is getattr(home, name)
        # cached after the first access: later lookups are plain dict hits
        assert vars(uuqc)[name] is getattr(home, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from uuqc import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(uuqc.__all__)
    assert all(namespace[name] is getattr(uuqc, name) for name in uuqc.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="'uuqc' has no attribute 'no_such_name'"):
        uuqc.no_such_name
    assert not hasattr(uuqc, "no_such_name")


def test_dir_lists_names_and_submodules():
    assert set(uuqc.__all__) | set(EXPORTS) | {"__version__"} <= set(dir(uuqc))


def test_import_loads_no_submodule_and_no_numpy():
    loaded = _fresh_modules("import json, sys, uuqc; print(json.dumps(sorted(sys.modules)))")
    assert "uuqc" in loaded
    assert [m for m in loaded if m.startswith("uuqc.") or m == "numpy"] == []


# subcommand -> (modules it must load, modules it must not load)
FOOTPRINTS = {
    "schmidt": ({"uuqc.entanglement"}, {"uuqc.qec", "uuqc.densecode"}),
    "check-uum": ({"uuqc.unambiguous"}, {"uuqc.qec", "uuqc.densecode", "uuqc.entanglement"}),
    "check-uuqc": ({"uuqc.unambiguous"}, {"uuqc.qec", "uuqc.densecode", "uuqc.entanglement"}),
    "refine": ({"uuqc.unambiguous"}, {"uuqc.qec", "uuqc.densecode", "uuqc.entanglement"}),
    "to-ues": ({"uuqc.entanglement"}, {"uuqc.qec", "uuqc.densecode"}),
    "teleport": ({"uuqc.entanglement"}, {"uuqc.qec", "uuqc.densecode"}),
    "kl-check": ({"uuqc.qec"}, {"uuqc.densecode"}),
    "ec-prob": ({"uuqc.qec"}, {"uuqc.densecode"}),
    "dense-code": ({"uuqc.densecode"}, {"uuqc.qec", "uuqc.entanglement"}),
    "verify-dc": ({"uuqc.densecode"}, {"uuqc.qec", "uuqc.entanglement"}),
}


def _tiny_argv(command: str, tmp_path) -> list:
    def write(name, doc):
        (tmp_path / name).write_text(dump_json(doc))
        return str(tmp_path / name)

    identity = write("identity.json", channel_to_doc(KrausChannel((np.eye(2, dtype=complex),))))
    phi = [write("phi.json", ket_to_doc(maximally_entangled_ket(2))), "--dims", "2,2"]
    code = write("code.json", code_to_doc(CodeSpec(np.eye(2, dtype=complex))))
    protocol = optimal_protocol(SharedState.from_squares([0.5, 0.5]))
    return {
        "schmidt": phi,
        "check-uum": [write("omega.json", matrix_to_doc(np.eye(2, dtype=complex)))],
        "check-uuqc": [identity],
        "refine": [identity],
        "to-ues": [identity],
        "teleport": [*phi, "--d", "2"],
        "kl-check": [code, identity],
        "ec-prob": [code, identity],
        "dense-code": ["--D", "2", "--lambdas2", "0.5,0.5", "--trials", "10"],
        "verify-dc": [write("encoders.json", channel_to_doc(KrausChannel(protocol.encoders))),
                      write("bob.json", matrix_to_doc(optimal_receiver(protocol))), "--lambdas2", "0.5,0.5"],
    }[command]


@pytest.mark.parametrize("command", FOOTPRINTS)
def test_subcommand_loads_only_what_it_runs(command, tmp_path):
    argv = [command, *_tiny_argv(command, tmp_path), "--out", str(tmp_path / "report.json")]
    code, loaded = _fresh_modules(
        "import json, sys\n"
        "from uuqc.cli import dispatch\n"
        "code = dispatch(json.loads(sys.argv[1]))\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('uuqc.'))]))",
        json.dumps(argv),
    )
    needed, excluded = FOOTPRINTS[command]
    assert code == 0
    assert needed <= set(loaded)
    assert excluded.isdisjoint(loaded)


def _dispatched(capsys, argv: list, out) -> tuple:
    """Exit code, stderr and report bytes of an in-process ``dispatch``."""
    code = dispatch([*argv, "--out", str(out)])
    return code, capsys.readouterr().err, out.read_bytes()


@pytest.mark.parametrize("command", FOOTPRINTS)
def test_python_m_uuqc_matches_dispatch(command, capsys, tmp_path):
    argv = [command, *_tiny_argv(command, tmp_path)]
    expected = _dispatched(capsys, argv, tmp_path / "dispatch.json")
    proc = _child("-m", "uuqc", *argv, "--out", str(tmp_path / "child.json"))
    assert proc.stdout == ""
    assert (proc.returncode, proc.stderr, (tmp_path / "child.json").read_bytes()) == expected
    assert expected[0] == 0 and len(expected[1].splitlines()) == 1


def test_script_entry_matches_dispatch(capsys, tmp_path):
    # the installed ``uuqc`` script calls ``uuqc.__main__:main``; it leaves
    # the collector off and the heap frozen for the interpreter's exit
    argv = ["check-uuqc", *_tiny_argv("check-uuqc", tmp_path)]
    expected = _dispatched(capsys, argv, tmp_path / "dispatch.json")
    proc = _child("-c",
                  "import atexit, gc, json, sys\n"
                  "atexit.register(lambda: print(json.dumps([gc.isenabled(), gc.get_freeze_count() > 0])))\n"
                  "sys.argv = ['uuqc', *json.loads(sys.argv[1])]\n"
                  "from uuqc.__main__ import main\n"
                  "main()",
                  json.dumps([*argv, "--out", str(tmp_path / "child.json")]))
    assert (proc.returncode, proc.stderr, (tmp_path / "child.json").read_bytes()) == expected
    assert json.loads(proc.stdout) == [False, True]


def test_library_leaves_the_collector_alone(tmp_path):
    # only ``main`` switches the collector off; importing the package, the
    # command line or its entry module, and an in-process ``dispatch``, do not
    argv = ["check-uuqc", *_tiny_argv("check-uuqc", tmp_path), "--out", str(tmp_path / "report.json")]
    states = _fresh_modules(
        "import gc, json, sys\n"
        "states = []\n"
        "def note():\n"
        "    states.append([gc.isenabled(), gc.get_freeze_count()])\n"
        "import uuqc; note()\n"
        "import uuqc.cli; note()\n"
        "import uuqc.__main__; note()\n"
        "code = uuqc.cli.dispatch(json.loads(sys.argv[1])); note()\n"
        "print(json.dumps([code, states]))",
        json.dumps(argv),
    )
    assert states == [0, [[True, 0]] * 4]


def test_importing_the_entry_module_runs_nothing():
    proc = _child("-c", "import uuqc.__main__")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")

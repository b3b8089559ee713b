"""``tools/layer_timings.py``: the sign test's rank and interval, and the
case names its cheap case families declare."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("layer_timings", ROOT / "tools" / "layer_timings.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("cases, k", [(172, 3), (225, 3), (226, 2)])
def test_sign_test_rank_at_21_rounds(cases, k):
    # ROUNDS = 21 gives k = 3 for up to 225 cases, as the docstring says.
    rank, level = _tool().sign_test_rank(21, 0.05 / cases)
    assert rank == k and level >= 1 - 0.05 / cases


def test_sign_test_rank_refuses_too_few_rounds():
    with pytest.raises(ValueError, match="raise ROUNDS"):
        _tool().sign_test_rank(5, 0.05)


def test_paired_ratio_interval_is_the_kth_smallest_and_largest():
    ratios = [1.3, 0.7, 1.0, 0.9, 1.1, 0.8, 1.2]
    tool = _tool()
    assert tool.paired_ratio_interval(ratios, 1) == [0.7, 1.3]
    assert tool.paired_ratio_interval(ratios, 3) == [0.9, 1.1]


# Shor's 117 MB noise stack makes these two slow to build.
_COSTLY = ("_repetition_cases", "_stabilizer_cases")


def test_every_built_case_is_declared_in_its_family(monkeypatch):
    # --cases builds only the families whose declared names match, so an
    # undeclared name would never be built.
    tool = _tool()
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    built = 0
    for names, build in tool.FAMILIES:
        if build.__name__ in _COSTLY:
            continue
        cases = build()
        assert cases and {case[0] for case in cases} <= set(names), build.__name__
        built += 1
    assert built == len(tool.FAMILIES) - len(_COSTLY)

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name, monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))  # a tool imports its siblings
    spec = importlib.util.spec_from_file_location(f"tool_{name}",
                                                  TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("better,wins", [("lower", 1), ("higher", 2)])
def test_ab_verdict_pairs_the_runs_and_counts_a_tie_for_neither_side(
        better, wins, monkeypatch):
    # base median 2.0 with quartiles [1.0, 3.0]; pair 3 is a tie
    base, work = [1.0, 1.0, 3.0, 3.0], [2.0, 9.0, 3.0, 0.5]
    v = load_tool("ab", monkeypatch).verdict(base, work, better)
    assert (v["base_median"], v["base_quartiles"]) == (2.0, [1.0, 3.0])
    assert v["work_median"] == 2.5
    assert v["paired_ratio"] == 1.5  # the median of 2, 9, 1 and 0.5
    assert (v["wins"], v["pairs"]) == (wins, 4)
    assert v["resolved"] is False  # 0.5 apart, inside the IQR of 2.0


def test_ab_verdict_resolves_a_gap_wider_than_the_base_iqr(monkeypatch):
    ab = load_tool("ab", monkeypatch)
    v = ab.verdict([1.0, 1.0, 3.0, 3.0], [5.0, 5.0, 5.0, 5.0], "lower")
    assert v["resolved"] is True and v["wins"] == 0

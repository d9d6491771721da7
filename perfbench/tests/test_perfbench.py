"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Every workload runs end to end for one round; the checker must count
corrupted solutions as failed; the oracle must agree with a literal loop
over every subset of a small instance.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run as bench_run  # noqa: E402
from workloads import Outcome, cap_bug_instance  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# failed operations per round: the exhaustive cap_bug operation fails on purpose
FAILED_PER_ROUND = {"exhaustive_caps": 1}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_end_to_end(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    rounds = 2 if trace else 1          # a traced run makes one untraced, one traced round
    per_round = result["attempted"] // rounds
    assert result["attempted"] == rounds * per_round >= rounds
    assert result["failed"] == rounds * FAILED_PER_ROUND.get(workload, 0)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "items_lazy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0 and not done.stdout.strip()


# ---------------------------------------------------------------------------
# the checker counts corrupted solutions as failed
# ---------------------------------------------------------------------------


def small_problem(**constraints) -> checks.Problem:
    """Groups L (locked), A and B with equal values: the full set matches."""
    values = np.array([1.0, 2.0, 3.0, 4.0, 5.0] * 3)[:, None]
    groups = ["L"] * 5 + ["A"] * 5 + ["B"] * 5
    ids = [f"{g.lower()}{i}" for g, i in zip(groups, [0, 1, 2, 3, 4] * 3)]
    crit = tuple(checks.Criterion("welch_t", 0, pair, 0.2)
                 for pair in (("A", "B"), ("A", "L"), ("B", "L")))
    return checks.Problem(tuple(ids), tuple(groups), values, crit,
                          locked=frozenset({"L"}), **constraints)


def outcome_keeping(problem, dropped) -> Outcome:
    kept = tuple(s for s in problem.ids if s not in dropped)
    return Outcome("op", None, True, (kept,), (), len(dropped))


def failures(problem, dropped):
    return bench_run.op_failures("items_lazy", outcome_keeping(problem, dropped), problem, {})


def test_checker_passes_a_valid_solution():
    assert failures(small_problem(), set()) == []
    assert failures(small_problem(max_removed_total=2), {"a2", "b2"}) == []


def test_checker_fails_a_removed_locked_row():
    assert any("locked group L" in m for m in failures(small_problem(), {"l2"}))


def test_checker_fails_a_broken_cap():
    per_group = small_problem(max_removed_per_group={"A": 1})
    assert any("cap 1" in m for m in failures(per_group, {"a1", "a2"}))
    total = small_problem(max_removed_total=1)
    assert any("in total, cap 1" in m for m in failures(total, {"a1", "b1"}))
    floor = small_problem(min_group_size=4)
    assert any("minimum 4" in m for m in failures(floor, {"a0", "a1"}))


def test_checker_fails_a_kept_set_whose_scipy_r_is_below_one():
    # keeping A's two lowest values shifts A away from B and L
    assert scipy_stats.ttest_ind([1.0, 2.0], [1.0, 2, 3, 4, 5], equal_var=False).pvalue < 0.2
    notes = failures(small_problem(), {"a2", "a3", "a4"})
    assert any("p/alpha < 1" in m for m in notes)


def test_checker_fails_an_unmatched_or_raising_operation():
    problem = small_problem()
    unmatched = Outcome("op", None, False, (problem.ids,), (), 0)
    assert bench_run.op_failures("items_lazy", unmatched, problem, {})
    raised = Outcome("op", "ValueError()", False, (), (), 0)
    assert bench_run.op_failures("items_lazy", raised, problem, {})


def test_anderson_darling_check_allows_for_scipy_clipping():
    x = np.arange(20.0)
    clipped_high = checks.Criterion("anderson_darling", 0, ("A", "B"), 0.2)
    assert checks.criterion_passes(clipped_high, [x, x + 0.5])
    far = [x, x + 100.0]
    assert not checks.criterion_passes(clipped_high, far)


# ---------------------------------------------------------------------------
# the oracle agrees with a literal enumeration
# ---------------------------------------------------------------------------


def literal_min_removals(problem: checks.Problem, cap: int):
    """Every keep-mask over all rows, checked one by one."""
    best = None
    for bits in itertools.product([True, False], repeat=problem.n):
        keep = np.array(bits)
        removed = int((~keep).sum())
        if removed > cap or (best is not None and removed >= best):
            continue
        if checks.constraint_violations(problem, keep):
            continue
        ok = True
        for c in problem.criteria:
            x, y = (problem.values[problem.rows_of(g), c.column][keep[problem.rows_of(g)]]
                    for g in c.groups)
            if scipy_stats.ttest_ind(x, y, equal_var=False).pvalue < c.alpha:
                ok = False
                break
        if ok:
            best = removed
    return best


def test_oracle_agrees_with_a_hand_enumerated_instance():
    rng = np.random.default_rng(5)
    values = np.concatenate([rng.normal(0, 1, 4), rng.normal(0, 1, 5), rng.normal(1.5, 1, 5)])
    values[13] += 4.0
    groups = ["L"] * 4 + ["A"] * 5 + ["B"] * 5
    ids = [f"r{i}" for i in range(14)]
    crit = tuple(checks.Criterion("welch_t", 0, pair, 0.2)
                 for pair in (("A", "B"), ("A", "L"), ("B", "L")))
    problem = checks.Problem(tuple(ids), tuple(groups), values[:, None], crit,
                             locked=frozenset({"L"}), max_removed_per_group={"B": 3})
    expected = literal_min_removals(problem, 5)
    assert expected is not None and expected >= 2
    assert checks.oracle_min_removals(problem, 5) == expected
    assert checks.oracle_min_removals(problem, expected - 1) is None


def test_cap_bug_instance_needs_more_removals_than_its_cap():
    ids, groups, values = cap_bug_instance()
    crit = (checks.Criterion("welch_t", 0, ("A", "B"), 0.2),)
    problem = checks.Problem(tuple(ids), tuple(groups), values, crit)
    assert checks.oracle_min_removals(problem, 1) is None
    assert checks.oracle_min_removals(problem, 4) == literal_min_removals(problem, 4) == 3


def test_removal_set_count():
    assert checks.count_removal_sets(40, 5) == 760099

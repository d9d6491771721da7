"""groupmatch benchmark: four matching workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; groupmatch is imported from its ``src``.
One process runs one workload: single-threaded searches (``threads=1``,
grid ``workers=1``) with BLAS pinned to one thread.

``--trace 0`` prints the end-to-end metrics: the median round wall time,
the median set-up time of several fresh interpreters, peak resident
memory and the rows the operations exclude.  ``--trace 1`` runs half the
time untraced and half with every layer wrapped (see tracing.py), checks
that both halves produced the same bytes, and prints the per-layer metrics.

Every operation is checked apart from the program (checks.py) after the
timed rounds.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A result file with the same object (and, traced, the spans) is written to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "excluded_rows": "rows"}
LAYER_UNITS = {
    "stats.welch_calls": "calls", "stats.welch_us": "us/call", "stats.ad_calls": "calls",
    "stats.ad_us": "us/call", "stats.undefined": "calls", "stats.busy_s": "s",
    "criteria.evals": "masks", "criteria.evals_per_s": "masks/s", "criteria.self_s": "s",
    "criteria.rank_calls": "calls", "criteria.rank_s": "s",
    "search.budget_evals": "evals", "search.recomputations": "steps",
    "search.candidates_per_step": "masks/step", "search.step_s": "s/step",
    "search.self_s": "s", "search.useful_ratio": "ratio",
    "synthgen.attempts": "datasets", "synthgen.busy_s": "s",
    "harness.cells": "cells", "harness.self_s": "s",
    "dataset.load_s": "s", "cli.self_s": "s", "trace.overhead": "ratio",
}


def run_rounds(session, seconds: float, registry=None, span=None):
    """Whole rounds until the next one would end past ``seconds``."""
    span = span or contextlib.nullcontext
    walls, rounds = [], []
    started = time.perf_counter()
    while True:
        wall, outcomes = session.run_round(registry, span)
        walls.append(wall)
        rounds.append(outcomes)
        if time.perf_counter() - started + statistics.median(walls) > seconds:
            return walls, rounds


def probe_setup(workload: str, inputs_path: Path) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(inputs_path)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


def op_failures(workload: str, outcome, problem, expected) -> list[str]:
    """Why an operation failed; empty when it passed every check."""
    import checks

    if outcome.error is not None:
        return [f"raised: {outcome.error}"]
    if workload == "exhaustive_caps":
        oracle = expected[outcome.key]
        if outcome.success != (oracle is not None):
            return [f"reported success={outcome.success}, oracle min removals {oracle}"]
        if not outcome.success:
            return []
        out = checks.solution_failures(problem, outcome.solutions)
        if outcome.excluded != oracle:
            out.append(f"excluded {outcome.excluded} rows, oracle {oracle}")
        return out
    if not outcome.success:
        return ["no match reported"]
    return checks.solution_failures(problem, outcome.solutions)


def count_failures(workload, rounds, problems, expected):
    """(failed operations, notes); each distinct outcome is checked once."""
    verdicts: dict = {}
    failed = 0
    for outcomes in rounds:
        for outcome in outcomes:
            fp = outcome.fingerprint()
            if fp not in verdicts:
                verdicts[fp] = op_failures(workload, outcome, problems.get(outcome.key),
                                           expected)
            failed += bool(verdicts[fp])
    notes = sorted({f"{fp[0]}: {'; '.join(v)}" for fp, v in verdicts.items() if v})
    return failed, notes


def same_outcomes(rounds, reference) -> bool:
    ref = [o.fingerprint() for o in reference]
    return all([o.fingerprint() for o in outcomes] == ref for outcomes in rounds)


def layer_metrics(tracer, n_rounds: int, overhead: float) -> dict:
    from checks import count_removal_sets

    site = tracer.site

    def per_round(value):
        return value / n_rounds

    def ratio(a, b):
        return a / b if b else 0.0

    welch, ad = site("stats.welch"), site("stats.ad")
    evaluate, rank = site("criteria.evaluate"), site("criteria.rank")
    searches = [site(f"search.{e}") for e in
                ("random_search", "greedy_search", "lookahead_search", "exhaustive_search")]
    constructive = [site("search.greedy_search"), site("search.lookahead_search")]

    budget = sum(r.evaluations for s in searches for _, _, r in s.results)
    steps = masks = walks = 0
    for s in constructive:
        for args, _, result in s.results:
            steps += sum(1 for t in result.trace if t.r_after is not None)
            masks += result.evaluations // len(args[1].criteria)
            walks += 1
    generated = scored = 0
    for args, kwargs, result in site("search.exhaustive_search").results:
        data, cfg = args[0], args[1]
        scored += result.evaluations // len(cfg.criteria)
        generated += count_removal_sets(*_exhaustive_depths(data, cfg, kwargs, result))
    grid_cells = sum(len({(row.spec_index, row.replicate) for row in report.rows})
                     for _, _, report in site("harness.grid").results)
    load = site("dataset.load")
    return {
        "stats.welch_calls": per_round(welch.calls),
        "stats.welch_us": ratio(welch.busy, welch.calls) * 1e6,
        "stats.ad_calls": per_round(ad.calls),
        "stats.ad_us": ratio(ad.busy, ad.calls) * 1e6,
        "stats.undefined": per_round(welch.undefined + ad.undefined),
        "stats.busy_s": per_round(welch.busy + ad.busy),
        "criteria.evals": per_round(evaluate.calls),
        "criteria.evals_per_s": ratio(evaluate.calls, evaluate.busy),
        "criteria.self_s": per_round(evaluate.self_time),
        "criteria.rank_calls": per_round(rank.calls),
        "criteria.rank_s": per_round(rank.busy),
        "search.budget_evals": per_round(budget),
        "search.recomputations": per_round(steps),
        "search.candidates_per_step": ratio(masks - steps - walks, steps),
        "search.step_s": ratio(sum(s.busy for s in constructive), steps),
        "search.self_s": per_round(sum(s.self_time for s in searches)),
        "search.useful_ratio": ratio(scored, generated),
        "synthgen.attempts": per_round(sum(r.info.attempts for _, _, r in
                                           site("synthgen.generate").results)),
        "synthgen.busy_s": per_round(site("synthgen.generate").busy),
        "harness.cells": per_round(grid_cells),
        "harness.self_s": per_round(site("harness.grid").self_time),
        "dataset.load_s": ratio(load.busy, load.calls),
        "cli.self_s": per_round(site("cli.main").self_time),
        "trace.overhead": overhead,
    }


def _exhaustive_depths(data, cfg, kwargs, result) -> tuple[int, int]:
    """(removable rows, deepest removal count enumerated) of one exhaustive
    run, worked out from its inputs and its reported best state."""
    sizes = {g: len(data.group_index[g]) for g in data.group_labels}
    unlocked = [g for g in sizes if g not in cfg.locked_groups]
    removable = sum(sizes[g] for g in unlocked)
    room = sum(
        min(sizes[g] - cfg.min_group_size, cfg.max_removed_per_group.get(g, sizes[g]))
        for g in unlocked
    )
    bound = kwargs.get("max_removed")
    if bound is None:
        bound = cfg.max_removed_total if cfg.max_removed_total is not None else data.n_subjects
    bound = min(bound, room, removable)
    depth = data.n_subjects - result.rank.preserved if result.success else bound
    return removable, depth


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    inputs = wl.make_inputs(seed, workdir)
    inputs_path = workdir / "inputs.json"
    inputs_path.write_text(json.dumps(inputs.files), encoding="utf-8")
    session = wl.setup(inputs.files)

    if not trace:
        setups = [probe_setup(workload, inputs_path) for _ in range(SETUP_PROBES)]
        walls, rounds = run_rounds(session, seconds)
        rss = peak_rss_mb()
    else:
        from tracing import Tracer

        walls, rounds = run_rounds(session, seconds / 2)
        tracer = Tracer()
        with tracer.installed() as registry, tracer.span("run"):
            traced_session = wl.setup(inputs.files)
            traced_walls, traced_rounds = run_rounds(
                traced_session, seconds / 2, registry, tracer.span)
        rounds += traced_rounds

    problems = {**inputs.problems, **getattr(session, "problems", {})}
    failed, notes = count_failures(workload, rounds, problems, inputs.expected)
    # every round, traced or not, must report the same outputs
    correct = same_outcomes(rounds, rounds[0])
    if not trace:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
            "excluded_rows": sum(o.excluded for o in rounds[0]),
        }
        units, spans = END_TO_END_UNITS, None
    else:
        overhead = statistics.median(traced_walls) / statistics.median(walls)
        metrics = layer_metrics(tracer, len(traced_rounds), overhead)
        units, spans = LAYER_UNITS, tracer.spans
    for note in notes:
        print(f"failed operation {note}", file=sys.stderr)
    if not correct:
        print("rounds disagree on the operations' outputs", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": sum(len(r) for r in rounds),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    return result, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["subjects_pairs", "items_lazy", "intruder_grid",
                                 "exhaustive_caps"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "groupmatch" / "__init__.py").is_file():
        print(f"error: no groupmatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"       # before numpy loads; probes inherit it
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    out_root = ROOT / ".perfbench"
    workdir = out_root / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, spans = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results_dir = out_root / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  spans=spans)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

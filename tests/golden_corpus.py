"""Golden replay corpus: frozen output bytes of fixed search runs.

Each run's ``solutions.txt`` and ``trace.jsonl`` bytes are written the way
``groupmatch match`` writes them.  ``tests/test_golden_corpus.py`` replays
every run and compares bytes with ``tests/data/golden_corpus.json``.

The corpus pins behaviour across refactors.  A change that alters these
bytes must explain each altered run; the corpus is not regenerated to make
a diff pass.  To write it (only for a new corpus, from the commit it
freezes):

    PYTHONPATH=src python tests/golden_corpus.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from groupmatch.cli import _solutions_lines
from groupmatch.criteria import MatchConfig
from groupmatch.dataset import Dataset
from groupmatch.search import exhaustive_search, lookahead_search

from conftest import (
    build_clinical_dataset,
    build_trap_dataset,
    build_two_group_dataset,
    clinical_config,
    trap_criteria,
    welch_only_criteria,
)

CORPUS_PATH = Path(__file__).parent / "data" / "golden_corpus.json"


def oracle_instances():
    """The 50 two-group instances of acceptance criterion 1, drawn the same
    way from the same seed."""
    rng = np.random.default_rng(910)
    for checked in range(50):
        n = int(rng.integers(8, 17))
        n_a = int(rng.integers(3, n - 2))
        shift = float(rng.uniform(0.0, 1.5))
        data_rng = np.random.default_rng(int(rng.integers(0, 2**31)))
        values = np.concatenate(
            [data_rng.normal(0, 1, n_a), data_rng.normal(shift, 1, n - n_a)]
        )
        d = Dataset(
            [f"s{i}" for i in range(n)],
            ["A"] * n_a + ["B"] * (n - n_a),
            values[:, None],
            ["x"],
        )
        yield checked, d, MatchConfig(criteria=welch_only_criteria(alpha=0.2), seed=checked)


def runs():
    """(name, thunk) of every corpus run; a thunk returns (dataset, result)."""
    clinical = build_clinical_dataset()
    for seed in range(10):
        for size in (1, 2):
            cfg = clinical_config(seed=seed)
            yield f"clinical/h3_L{size}/seed{seed}", (
                lambda cfg=cfg, size=size: (
                    clinical, lookahead_search(clinical, cfg, "h3", lookahead=size)
                )
            )
    trap = build_trap_dataset()
    for variant in ("h3", "h4"):
        cfg = MatchConfig(criteria=trap_criteria(), seed=5)
        yield f"trap/{variant}_L2", (
            lambda cfg=cfg, variant=variant: (
                trap, lookahead_search(trap, cfg, variant, lookahead=2)
            )
        )
    lazy = build_two_group_dataset(1000, 1.2, seed=11, n_shifted=550)
    for batch in (1, 100):
        cfg = MatchConfig(criteria=welch_only_criteria(), seed=3)
        yield f"criterion7/h3_L1_batch{batch}", (
            lambda cfg=cfg, batch=batch: (
                lazy, lookahead_search(lazy, cfg, "h3", lookahead=1, batch_size=batch)
            )
        )
    for checked, d, cfg in oracle_instances():
        yield f"oracle/{checked:02d}", (
            lambda d=d, cfg=cfg: (d, exhaustive_search(d, cfg))
        )


def output_bytes(dataset, result) -> dict[str, str]:
    """The run's ``solutions.txt`` and ``trace.jsonl`` as the CLI writes them."""
    return {
        "solutions.txt": "\n".join(_solutions_lines(result, dataset)) + "\n",
        "trace.jsonl": "".join(step.to_json() + "\n" for step in result.trace),
    }


def main() -> None:
    corpus = {name: output_bytes(*run()) for name, run in runs()}
    CORPUS_PATH.parent.mkdir(parents=True, exist_ok=True)
    CORPUS_PATH.write_text(
        json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(corpus)} runs to {CORPUS_PATH}")


if __name__ == "__main__":
    main()

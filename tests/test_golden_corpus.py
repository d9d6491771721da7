"""Replay the golden corpus and compare output bytes (see golden_corpus.py)."""

import json

import pytest

from golden_corpus import CORPUS_PATH, output_bytes, runs

FROZEN = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))
RUNS = dict(runs())


def test_corpus_lists_every_run():
    assert sorted(RUNS) == sorted(FROZEN)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_replay_is_byte_identical(name):
    assert output_bytes(*RUNS[name]()) == FROZEN[name]

"""Exhaustive subset search: verdicts, shards, budgets, checkpoints."""

import json
import re

import pytest

from rotbent import (
    CapacityError,
    SearchTask,
    classify_degree2,
    exhaustive_search,
    format_sanf,
    orbit_count,
    search_crosscheck,
)


def test_degree2_search_recovers_the_classification():
    want = {format_sanf(s) for s in classify_degree2(8)}
    res = exhaustive_search(SearchTask(8, 2))
    assert res.candidates == 15
    assert {format_sanf(s) for s in res.bent} == want


def test_search_matches_the_per_candidate_reference():
    # search_crosscheck tests every candidate on its own truth table, by
    # every route, with no Gray walk or weight filter in between.
    for n, d in ((6, 2), (6, 3), (8, 2), (8, 3)):
        res = exhaustive_search(SearchTask(n, d))
        ref = search_crosscheck(n, d)
        assert res.candidates == ref.candidates, (n, d)
        assert len(res.bent) == ref.bent_count, (n, d)


def test_six_variable_degree3_space_is_empty():
    res = exhaustive_search(SearchTask(6, 3))
    assert res.candidates == 15
    assert res.bent == ()


def test_odd_n_runs_and_finds_nothing():
    res = exhaustive_search(SearchTask(7, 3))
    assert res.candidates == (1 << orbit_count(7, 3)) - 1 == 31
    assert res.bent == ()


def test_shards_partition_the_space():
    whole = exhaustive_search(SearchTask(8, 3))
    tested = 0
    merged = []
    for i in range(4):
        part = exhaustive_search(SearchTask(8, 3, (i, 4)))
        tested += part.candidates
        merged.extend(part.bent)
    assert tested == whole.candidates
    assert sorted(s.reps for s in merged) == sorted(s.reps for s in whole.bent)


def test_budget_error_names_the_shard_count():
    with pytest.raises(CapacityError) as exc:
        exhaustive_search(SearchTask(10, 4), budget=1000)
    assert "4195 shards" in str(exc.value)
    assert "long-running" in str(exc.value)


def test_long_run_overrides_the_budget():
    res = exhaustive_search(SearchTask(8, 3, long_run=True), budget=10)
    assert res.candidates == 127


def test_checkpoint_records(tmp_path):
    path = tmp_path / "search.jsonl"
    res = exhaustive_search(SearchTask(8, 3), checkpoint_path=str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines
    last = lines[-1]
    assert last["n"] == 8 and last["d"] == 3
    assert last["shard"] is None
    assert last["candidates_tested"] == res.candidates == 127
    assert last["range"] == [1, 128]
    assert re.fullmatch(r"[0-9a-f]{16}", last["params_hash"])
    assert last["elapsed_s"] >= 0
    assert last["bent"] == []


def test_task_validation():
    with pytest.raises(ValueError):
        SearchTask(8, 2, shard=(4, 4))
    with pytest.raises(ValueError):
        SearchTask(8, 2, shard=(-1, 4))
    with pytest.raises(ValueError):
        SearchTask(8, 2, shard=(0, 0))


def test_result_serialization():
    res = exhaustive_search(SearchTask(6, 2))
    d = res.as_dict()
    assert d["n"] == 6 and d["d"] == 2
    assert d["candidates_tested"] == 7
    assert d["bent"] == ["x1x4", "x1x2+x1x3+x1x4"]


def test_crosscheck_degree2():
    rep = search_crosscheck(6, 2)
    assert rep.candidates == 7
    assert rep.bent_count == 2
    assert rep.valuation_checked == 7
    assert rep.degree2_checked == 7


def test_crosscheck_degree3():
    rep = search_crosscheck(8, 3)
    assert rep.candidates == 127
    assert rep.bent_count == 0
    assert rep.degree2_checked == 0
    # Only subsets of at most three of the seven size-8 orbits stay within
    # the 24-monomial cap of the direct route: 7 + 21 + 35.
    assert rep.valuation_checked == 63


def test_crosscheck_capacity_guard():
    with pytest.raises(CapacityError):
        search_crosscheck(12, 4)

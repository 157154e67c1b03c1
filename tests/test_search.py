"""Exhaustive subset search: verdicts, shards, budgets, checkpoints."""

import json
import re
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotbent import (
    NOT_BENT,
    CapacityError,
    InternalInconsistencyError,
    Sanf,
    SearchTask,
    classify_degree2,
    enumerate_orbit_reps,
    exhaustive_search,
    format_sanf,
    is_bent,
    orbit_count,
    orbit_masks,
    parse_sanf,
    sanf_truth_table,
    search,
    search_crosscheck,
    walsh_spectrum,
)
from rotbent.boolfn import TruthTable
from rotbent.cli import main
from rotbent.nonexistence import NonexistenceReport
from rotbent.rotsym import is_rotation_symmetric, rotate
from rotbent.search import bent_verdict

# stats counts that partition with the candidate space
_ADDITIVE = ("candidates", "residue_skipped", "weight_survivors", "sieve_survivors", "hits")


def test_degree2_search_recovers_the_classification():
    for n in (8, 10, 12, 14):
        want = {format_sanf(s) for s in classify_degree2(n)}
        res = exhaustive_search(SearchTask(n, 2))
        assert res.candidates == (1 << (n // 2)) - 1, n
        assert {format_sanf(s) for s in res.bent} == want, n
        assert res.stats["hits"] == len(want), n


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
    for n, d in ((8, 3), (8, 2), (12, 3)):
        whole = exhaustive_search(SearchTask(n, d))
        tested = 0
        merged = []
        counts = Counter()
        for i in range(4):
            part = exhaustive_search(SearchTask(n, d, (i, 4)))
            tested += part.candidates
            merged.extend(part.bent)
            counts.update({k: part.stats[k] for k in _ADDITIVE})
        assert tested == whole.candidates
        assert sorted(s.reps for s in merged) == sorted(s.reps for s in whole.bent)
        assert counts == {k: whole.stats[k] for k in _ADDITIVE}, (n, d)


def _walked_tables(monkeypatch):
    """The `_OrbitTables` object each `_walk` call gets, in call order."""
    seen, real = [], search._walk

    def spy(orb, lo, hi, stats):
        seen.append(orb)
        return real(orb, lo, hi, stats)

    monkeypatch.setattr(search, "_walk", spy)
    return seen


def _builds(monkeypatch):
    """(n, layer held at the time) of each `_OrbitTables` build, from a cold start."""
    seen, real = [], search._OrbitTables

    def spy(n, reps):
        seen.append((n, search._layer))
        return real(n, reps)

    monkeypatch.setattr(search, "_OrbitTables", spy)
    monkeypatch.setattr(search, "_layer", None)
    return seen


def test_searches_of_one_layer_share_one_read_only_table_object(monkeypatch):
    seen, builds = _walked_tables(monkeypatch), _builds(monkeypatch)
    for shard in ((0, 3), (2, 3), None):
        exhaustive_search(SearchTask(10, 3, shard))
    orb = seen[0]
    assert all(o is orb for o in seen) and len(seen) == 3
    assert builds == [(10, None)]
    arrays = [orb.slots, orb.coords, orb.planes, orb.tables, orb.low]
    arrays += [orb.residues, orb.fixed]
    held = [v for v in vars(orb).values() if isinstance(v, np.ndarray)]
    assert {id(a) for a in held} == {id(a) for a in arrays}  # every array the layer holds
    assert isinstance(orb.reach, tuple) and all(isinstance(r, tuple) for r in orb.reach)
    assert not _sieve_rows(orb).sum(axis=1).any()  # every M[c] sums to 0, as sieve_pass assumes
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1


def _record(result):
    """`as_dict()` without the timings: what a cold and a warm call must share."""
    return _masked(result.as_dict())


def _masked(d):
    del d["elapsed_s"]
    d["stats"] = {k: v for k, v in d["stats"].items() if not k.endswith("_s")}
    return d


@pytest.mark.parametrize("n, d", [(8, 2), (10, 3), (12, 3)])
def test_a_warm_call_gives_the_result_of_a_cold_one(monkeypatch, n, d):
    builds = _builds(monkeypatch)
    cold = exhaustive_search(SearchTask(n, d))
    warm = exhaustive_search(SearchTask(n, d))
    assert builds == [(n, None)]
    assert warm == cold and _record(warm) == _record(cold)


@pytest.mark.parametrize("n, d", [(8, 3), (10, 3)])
def test_every_warm_shard_sums_to_the_whole_layer(monkeypatch, n, d):
    seen = _walked_tables(monkeypatch)
    whole = exhaustive_search(SearchTask(n, d))
    total = 7
    parts = [exhaustive_search(SearchTask(n, d, (i, total))) for i in range(total)]
    assert all(o is seen[0] for o in seen)
    assert [p.range for p in parts] == sorted(p.range for p in parts)
    assert parts[0].range[0] == whole.range[0] and parts[-1].range[1] == whole.range[1]
    assert all(a.range[1] == b.range[0] for a, b in zip(parts, parts[1:]))
    counts = Counter()
    for p in parts:
        counts.update({k: p.stats[k] for k in _ADDITIVE})
    assert counts == {k: whole.stats[k] for k in _ADDITIVE}
    assert tuple(s for p in parts for s in p.bent) == whole.bent


def test_another_layer_replaces_the_held_tables_after_dropping_them(monkeypatch):
    builds = _builds(monkeypatch)
    exhaustive_search(SearchTask(8, 3))
    old = weakref.ref(search._layer[2])
    exhaustive_search(SearchTask(10, 3))
    assert builds == [(8, None), (10, None)]  # nothing held during either build
    assert old() is None
    reps = tuple(enumerate_orbit_reps(10, 3))
    n, d, orb = search._layer
    assert (n, d) == (10, 3) and (orb.n, orb.reps) == (10, reps)
    assert search._layer_tables(10, 3) is orb and len(builds) == 2


def _enumerations(monkeypatch):
    """(n, w) of each `enumerate_orbit_reps` call the search makes, from a cold start."""
    seen, real = [], search.enumerate_orbit_reps

    def spy(n, w):
        seen.append((n, w))
        return real(n, w)

    monkeypatch.setattr(search, "enumerate_orbit_reps", spy)
    monkeypatch.setattr(search, "_layer", None)
    return seen


def test_a_benchmark_round_run_twice_enumerates_once(monkeypatch):
    seen = _enumerations(monkeypatch)
    tasks = [SearchTask(10, 4, shard=(i, 256)) for i in range(13, 256, 16)]
    for task in tasks + tasks:
        exhaustive_search(task)
    assert seen == [(10, 4)]


def test_a_warm_benchmark_round_re_tests_one_sanf_per_non_empty_shard(monkeypatch):
    # the first eight shards hold W(0) survivors and no sieve survivor, so each
    # re-tests exactly its first sieve negative; the last eight keep nothing
    tasks = [SearchTask(10, 4, shard=(i, 256)) for i in range(13, 256, 16)]
    for task in tasks:
        exhaustive_search(task)
    real, calls = search.sanf_truth_table, []
    monkeypatch.setattr(search, "sanf_truth_table", lambda sanf: calls.append(sanf) or real(sanf))
    tests = []
    for task in tasks:
        before = len(calls)
        stats = exhaustive_search(task).stats
        tests.append(len(calls) - before)
        assert stats["spectral_tests"] == tests[-1] and stats["sieve_survivors"] == 0
        assert (stats["weight_survivors"] > 0) == (tests[-1] == 1)
    assert tests == [1] * 8 + [0] * 8


def test_each_layer_switch_enumerates_once(monkeypatch):
    seen = _enumerations(monkeypatch)
    layers = [(8, 3), (8, 3), (10, 3), (8, 3), (8, 3), (8, 2), (10, 3), (10, 3)]
    for n, d in layers:
        exhaustive_search(SearchTask(n, d))
    assert seen == [(8, 3), (10, 3), (8, 3), (8, 2), (10, 3)]


@pytest.mark.parametrize("task", [SearchTask(10, 5), SearchTask(24, 2)])  # budget, table cap
def test_a_refused_call_enumerates_nothing_and_keeps_the_held_layer(monkeypatch, task):
    seen = _enumerations(monkeypatch)
    exhaustive_search(SearchTask(8, 3))
    held = search._layer
    with pytest.raises(CapacityError):
        exhaustive_search(task)
    assert seen == [(8, 3)] and search._layer is held


# timing-masked records: (n, d, shard), Gray range, residue-skipped candidates,
# W(0) survivors, sieve survivors, spectral tests, bent SANFs and params hash;
# shard 13/256 is one of the 16 of a search-n10-d4 benchmark round
_BENT_8_2 = ["x1x5", "x1x2+x1x5", "x1x3+x1x5", "x1x2+x1x3+x1x5", "x1x4+x1x5"]
_BENT_8_2 += ["x1x2+x1x4+x1x5", "x1x3+x1x4+x1x5", "x1x2+x1x3+x1x4+x1x5"]
_PINNED = [
    ((10, 4, (13, 256)), (212992, 229376), (0, 676, 0, 1), [], "e866e552f013d574"),
    ((10, 4, (5, 7)), (2995931, 3595117), (285549, 5683, 0, 1), [], "cac4b6a828645c51"),
    ((12, 3, None), (1, 524288), (0, 32878, 27, 28), [], "612e5a487447a652"),
    ((12, 3, (1, 3)), (174763, 349525), (0, 11310, 8, 9), [], "5e470a1ca843ab7d"),
    ((12, 4, (3, 1 << 20)), (25165824, 33554432), (0, 6477, 0, 8), [], "376faea7a51f87f1"),
    ((8, 2, None), (1, 16), (0, 8, 8, 8), _BENT_8_2, "5540a0a96cbeac2a"),
    ((8, 4, None), (1, 1024), (0, 2, 0, 1), [], "b6125d9364c34c58"),
    ((9, 3, None), (1, 1024), (1023, 0, 0, 0), [], "5ab98cb8ed9bb052"),
]


def test_the_benchmark_shard_record_is_pinned():
    # a refactor of the search must leave every one of these records equal
    for (n, d, shard), (lo, hi), (skipped, weight, sieve, spectral), bent, digest in _PINNED:
        stats = {"candidates": hi - lo, "residue_skipped": skipped}
        stats.update(weight_survivors=weight, sieve_survivors=sieve)
        stats.update(spectral_tests=spectral, hits=len(bent))
        assert _record(exhaustive_search(SearchTask(n, d, shard))) == {
            "n": n,
            "d": d,
            "shard": shard and list(shard),
            "range": [lo, hi],
            "candidates_tested": hi - lo,
            "bent": bent,
            "stats": stats,
            "params_hash": digest,
        }, (n, d, shard)


def _forced_reach(monkeypatch, n, d, skip):
    """Force every `reach[c]` of the held tables of layer (n, d): empty if `skip`,
    else all the bent weights."""
    orb = search._layer_tables(n, d)
    monkeypatch.setattr(orb, "reach", ((() if skip else orb.bent_weights),) * n)


_WHOLE = [
    (n, d) for n in range(4, 13) for d in range(1, n + 1) if orbit_count(n, d) <= 24
]  # every whole layer of 4 <= n <= 12 within the budget: 2^r - 1 <= 2^24 candidates
_SHARDS = [(10, 4, (i, 256)) for i in range(13, 256, 16)]  # a search-n10-d4 round
_SHARDS += [
    (n, d, (i * t // 3, t))
    for n, d, t in ((12, 4, 1 << 27), (14, 3, 1 << 10), (14, 4, 1 << 57))
    + ((16, 3, 1 << 19), (18, 3, 1 << 30), (20, 3, 1 << 41))
    for i in range(3)
]  # three shards of about 2^16 candidates from each of six larger layers


def test_the_residue_skip_changes_no_record(monkeypatch, tmp_path):
    # each task as shipped and with every reach[c] of its layer forced to all
    # the bent weights: every block walked (at even n), compared with both
    tasks = [SearchTask(n, d) for n, d in _WHOLE] + [SearchTask(*t) for t in _SHARDS]
    skipped = Counter()
    for task in tasks:
        shipped = _records(task, tmp_path / "shipped.jsonl")
        skipped[task.n, task.d] += shipped[0]["stats"]["residue_skipped"]
        with monkeypatch.context() as m:
            _forced_reach(m, task.n, task.d, skip=False)
            walked = _records(task, tmp_path / "walked.jsonl")
        # an odd n has no bent weight to reach: every block skips either way
        all_skipped = task.n % 2 and walked[0]["stats"]["candidates"]
        assert walked[0]["stats"]["residue_skipped"] == all_skipped
        assert _unskipped(shipped) == _unskipped(walked), task
    assert skipped[10, 4] > 0 and skipped[14, 4] > 0
    assert len(_WHOLE) == 62 and (10, 4) in _WHOLE and (12, 4) not in _WHOLE


@pytest.mark.parametrize(
    "task", [SearchTask(14, 3, long_run=True), SearchTask(10, 5, long_run=True), SearchTask(9, 3)]
)
def test_layers_without_a_reachable_bent_weight_skip_every_block(task):
    # at n = 14 d = 3 and n = 10 d = 5 the short orbits fix the weight mod n
    # away from both bent weights, and an odd n has none
    stats = exhaustive_search(task).stats
    assert stats["candidates"] == (1 << orbit_count(task.n, task.d)) - 1
    assert stats["residue_skipped"] == stats["candidates"]
    assert stats["weight_survivors"] == stats["spectral_tests"] == 0


def test_a_wrong_skip_is_an_inconsistency(monkeypatch):
    # shard 13/256 of n = 10 d = 4 is one block with 676 W(0) survivors; forced
    # to skip, its spot-checked table weighs 356, 6 mod 10 like the bent 496
    _forced_reach(monkeypatch, 10, 4, skip=True)
    with pytest.raises(InternalInconsistencyError, match="skipped at residue 6 mod 10"):
        exhaustive_search(SearchTask(10, 4, (13, 256)))
    assert main(["search", "-n", "10", "-d", "4", "--shard", "13/256"]) == 3


def _records(task, path):
    """The timing-masked result of `task` and of each checkpoint line it writes."""
    path.unlink(missing_ok=True)
    res = exhaustive_search(task, checkpoint_path=str(path))
    return _record(res), [_masked(json.loads(line)) for line in path.read_text().splitlines()]


def _unskipped(records):
    """The result and checkpoint lines of `_records` without `residue_skipped`:
    what the residue skip must not change."""
    result, lines = records
    for d in [result, *lines]:
        del d["stats"]["residue_skipped"]
    return result, lines


def test_block_width_never_changes_a_record(monkeypatch, tmp_path):
    # blocks of 2^16 table words widen n = 10 and n = 12 layers; a budget of
    # one word forces every layer back to the narrowest blocks, 2^12 columns
    tasks = [SearchTask(10, 4, (13, 256)), SearchTask(10, 4, (5, 7))]
    tasks += [SearchTask(12, 3), SearchTask(8, 2)]
    for n, d, k in ((10, 4, 14), (12, 3, 13), (16, 3, 12)):
        assert search._OrbitTables(n, enumerate_orbit_reps(n, d)).k == k, (n, d)
    seen = _walked_tables(monkeypatch)
    wide = [_records(t, tmp_path / "wide.jsonl") for t in tasks]
    monkeypatch.setattr(search, "_layer", None)
    monkeypatch.setattr(search, "_BLOCK_WORDS", 1)
    narrow = [_records(t, tmp_path / "narrow.jsonl") for t in tasks]
    assert [o.k for o in seen] == [14, 14, 13, 4, 12, 12, 12, 4]
    assert narrow == wide


def test_a_warm_benchmark_round_traces_under_one_mib():
    # the 16 shards of a search-n10-d4 benchmark round on held tables; the
    # packed sieve keeps 2^14-column blocks near 0.7 MiB, where unpacking
    # each block's W(0) survivors to int64 bits traced about 1.8 MiB
    tasks = [SearchTask(10, 4, shard=(i, 256)) for i in range(13, 256, 16)]
    exhaustive_search(tasks[0])
    tracemalloc.start()
    try:
        for task in tasks:
            exhaustive_search(task)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_search_stats():
    res = exhaustive_search(SearchTask(12, 3))
    stats = res.stats
    assert list(stats) == list(search._STATS)
    assert stats["candidates"] == res.candidates == (1 << 19) - 1
    assert 0 <= stats["hits"] <= stats["sieve_survivors"] < stats["weight_survivors"]
    # one re-tested sieve negative per chunk of 2^20 indices on top
    assert stats["spectral_tests"] == stats["sieve_survivors"] + 1
    # whole-layer W(0) survivors, sieve survivors and spectral tests, pinned
    pinned = ("weight_survivors", "sieve_survivors", "spectral_tests", "hits")
    other = exhaustive_search(SearchTask(10, 4)).stats
    assert [stats[k] for k in pinned] == [32878, 27, 28, 0]
    assert [other[k] for k in pinned] == [78116, 0, 4, 0]
    assert all(stats[k] >= 0.0 for k in ("tables_s", "walk_s", "sieve_s", "confirm_s"))
    # counters and timings are not part of a result's identity
    assert exhaustive_search(SearchTask(8, 2)) == exhaustive_search(SearchTask(8, 2))


def test_sieve_negative_that_is_bent_is_an_inconsistency(monkeypatch):
    # A sieve that rejects everything rejects bent functions too; the
    # per-chunk re-test from the SANF must catch it.
    real = search._OrbitTables.sieve_pass

    def reject_all(self, rows, weights):
        return np.zeros_like(real(self, rows, weights))

    monkeypatch.setattr(search._OrbitTables, "sieve_pass", reject_all)
    with pytest.raises(InternalInconsistencyError, match="sieve rejected bent"):
        exhaustive_search(SearchTask(8, 2))
    assert main(["search", "-n", "8", "-d", "2"]) == 3


def test_orbit_bits_that_disagree_with_the_sanf_table_are_an_inconsistency(monkeypatch):
    # _confirm_bent compares the orbit-bit table of each sieve survivor with
    # the table rebuilt from its SANF; a corrupted rebuild must raise
    real = search.sanf_truth_table

    def flipped(sanf):
        bits = real(sanf).bits.copy()
        bits[-1] ^= 1
        return TruthTable(sanf.n, bits)

    monkeypatch.setattr(search, "sanf_truth_table", flipped)
    with pytest.raises(InternalInconsistencyError, match="orbit bits disagree"):
        exhaustive_search(SearchTask(8, 2))
    assert main(["search", "-n", "8", "-d", "2"]) == 3


def test_a_rebuilt_table_flipped_off_the_orbit_members_is_an_inconsistency(monkeypatch):
    # x = 2 is not a slot (its orbit is aperiodic, and 1 is its least input): the
    # slots agree with the orbit bits, and only the rotation-symmetry check sees the flip
    real = search.sanf_truth_table

    def flipped(sanf):
        bits = real(sanf).bits.copy()
        bits[2] ^= 1
        return TruthTable(sanf.n, bits)

    assert min(orbit_masks(2, 8)) == 1 and len(orbit_masks(2, 8)) == 8
    monkeypatch.setattr(search, "sanf_truth_table", flipped)
    with pytest.raises(InternalInconsistencyError, match="orbit bits disagree"):
        exhaustive_search(SearchTask(8, 2))
    assert main(["search", "-n", "8", "-d", "2"]) == 3


def test_a_sieve_negative_with_corrupted_orbit_bits_is_an_inconsistency(monkeypatch):
    # n = 12 d = 3 has W(0) survivors and no bent function: a bentness-only
    # re-test of the first sieve negative would pass, the table check must not
    real_pass, real_bits = search._OrbitTables.sieve_pass, search._OrbitTables.slot_bits

    def reject(self, rows, weights):
        return np.zeros_like(real_pass(self, rows, weights))

    def corrupt(self, rows):
        bits = real_bits(self, rows).copy()
        bits[:, 0] ^= 1
        return bits

    monkeypatch.setattr(search._OrbitTables, "sieve_pass", reject)
    monkeypatch.setattr(search._OrbitTables, "slot_bits", corrupt)
    with pytest.raises(InternalInconsistencyError, match="orbit bits disagree"):
        exhaustive_search(SearchTask(12, 3))
    assert main(["search", "-n", "12", "-d", "3"]) == 3


# every orbit representative, of any weight, for even n <= 12
_EVEN_REPS = {
    n: [r for w in range(1, n + 1) for r in enumerate_orbit_reps(n, w)]
    for n in range(2, 13, 2)
}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_orbit_bits_give_weight_and_sieve_values(data):
    n = data.draw(st.sampled_from(sorted(_EVEN_REPS)))
    pool = st.sampled_from(_EVEN_REPS[n])
    reps = data.draw(st.lists(pool, min_size=1, max_size=8, unique=True))
    sanf = Sanf(n, tuple(reps))
    tt = sanf_truth_table(sanf)
    orb = search._OrbitTables(n, sanf.reps)
    row = np.bitwise_xor.reduce(orb.tables, axis=0)
    weight = orb.weight(row[:, None])
    bits, passed = orb.slot_bits(row[:, None]), orb.sieve_pass(row[:, None], weight)
    assert np.array_equal(bits[0], tt.bits[orb.slots]) and is_rotation_symmetric(tt)
    assert weight[0] == tt.weight
    want = walsh_spectrum(tt).values[orb.coords]
    assert np.array_equal(_sieve_values(orb, bits)[0], want)
    assert passed.tolist() == [bool(np.all(np.abs(want) == 1 << (n // 2)))]


def _sieve_odd(orb):
    """The odd counts odd[c] decoded from their bit planes: sum_b 2^b P_b."""
    planes = np.unpackbits(orb.planes.view(np.uint8), -1, orb.g, "little").astype(np.int64)
    return np.tensordot(1 << np.arange(planes.shape[1]), planes, (0, 1))


def _cover(orb):
    """Inputs each slot stands for, from the slot layout: n for the first wf words
    but their pads (a 0 past index 0; input 0 leads only at n = 1, where it is
    aperiodic), 1 for each periodic input."""
    i = np.arange(orb.g)
    pad = (i > 0) & (orb.slots == 0) & (i < 64 * orb.wf)
    return np.where(i < 64 * orb.wf, orb.n * ~pad, 1)


def _sieve_rows(orb):
    """The sieve rows M[c, i] = sum over the inputs y of slot i of (-1)^<c,y>,
    rebuilt from the planes as cover - 2 odd."""
    return _cover(orb) - 2 * _sieve_odd(orb)


def _sieve_values(orb, bits):
    """W at `coords` of every row of orbit bits, all coordinates at once."""
    return (1 - 2 * bits.astype(np.int64)) @ _sieve_rows(orb).T


def _block_rows(orb, j0):
    """Packed tables of the Gray block starting at subset index j0, as `_walk` builds them."""
    base = j0 ^ (j0 >> 1)
    picked = orb.tables[[i for i in range(base.bit_length()) if base >> i & 1]]
    return orb.low ^ np.bitwise_xor.reduce(picked)[:, None]


@pytest.mark.parametrize(
    "n, d, blocks, passing", [(8, 2, None, 8), (10, 4, 24, 0), (12, 3, None, 27)]
)
def test_early_exit_sieve_flags_equal_the_all_coordinates_test(n, d, blocks, passing):
    # the W(0) survivors of every block of n=8 d=2 and n=12 d=3 and of random
    # blocks of n=10 d=4, row for row; every 8th block also whole, which
    # spans two or three 1 MiB steps at n = 10 and 12 and mostly fails at
    # the first coordinate
    orb = search._OrbitTables(n, enumerate_orbit_reps(n, d))
    total = 1 << (len(orb.reps) - orb.k)
    rng = np.random.default_rng(n)
    starts = range(total) if blocks is None else rng.choice(total, blocks, replace=False)
    flagged = 0
    for b in map(int, starts):
        rows = _block_rows(orb, b << orb.k)
        weights = orb.weight(rows)
        keep = np.flatnonzero(np.abs((1 << n) - 2 * weights.astype(np.int64)) == orb.bent)
        for part, w in ((rows, weights), (rows[:, keep], weights[keep]))[b % 8 > 0 :]:
            bits, passed = orb.slot_bits(part), orb.sieve_pass(part, w)
            assert passed.dtype == bool and passed.shape == (part.shape[1],)
            want = np.all(np.abs(_sieve_values(orb, bits)) == orb.bent, axis=1)
            assert np.array_equal(passed, want), (n, d, b)
        flagged += int(passed.sum())
    assert flagged == passing  # n=10 d=4 has no sieve survivor anywhere


def _unpack(row, g):
    return np.unpackbits(row.view(np.uint8), count=g, bitorder="little")


@pytest.mark.parametrize(
    "n, d", [(1, 1), (2, 1), (3, 2), (4, 2), (7, 3), (9, 3), (10, 4), (10, 5), (12, 3), (14, 3)]
)
def test_single_orbit_tables_match_the_butterfly_route(n, d):
    # every row against its representative's table expanded from the ANF, read
    # at each slot input; a rotation-symmetric table is fixed by those
    reps = enumerate_orbit_reps(n, d)
    orb = search._OrbitTables(n, reps)
    assert len(orb.tables) == len(reps)
    for rep, row in zip(reps, orb.tables):
        sanf = Sanf(n, (rep,))
        tt = sanf_truth_table(sanf)
        assert is_rotation_symmetric(tt)
        assert np.array_equal(_unpack(row, orb.g), tt.bits[orb.slots]), format_sanf(sanf)
    if n <= 12:  # slots, their multiplicities and the sieve against brute force
        _check_slots(orb)


def _check_slots(orb):
    """Against brute-force least rotations: every aperiodic orbit's least input once,
    pads of input 0 up to word wf, every periodic input once; each slot standing for
    its orbit's n inputs, none, or itself covers every input once; coords and the
    odd counts and sieve rows are those of the sorted least members."""
    n, wf = orb.n, orb.wf
    least = [min(rotate(x, l, n) for l in range(n)) for x in range(1 << n)]
    sizes = Counter(least)
    full = [x for x in sorted(sizes) if sizes[x] == n]
    periodic = [x for x in range(1 << n) if sizes[least[x]] < n]
    assert wf == -(-len(full) // 64) and orb.g == 64 * wf + len(periodic)
    assert orb.slots.tolist() == full + [0] * (64 * wf - len(full)) + periodic
    stands = [[rotate(x, l, n) for l in range(n)] for x in full]
    stands += [[]] * (64 * wf - len(full)) + [[x] for x in periodic]
    assert sum(map(len, stands)) == 1 << n
    assert sorted(y for ys in stands for y in ys) == list(range(1 << n))
    members = sorted(sizes)
    picks = np.linspace(1, len(members) - 1, search._SIEVE).astype(np.int64)
    assert orb.coords.tolist() == [members[i] for i in picks]
    assert _cover(orb).tolist() == list(map(len, stands))
    for c, odd, row in zip(orb.coords.tolist(), _sieve_odd(orb), _sieve_rows(orb)):
        parity = [[bin(c & y).count("1") & 1 for y in ys] for ys in stands]
        assert odd.tolist() == list(map(sum, parity)), (n, c)
        assert row.tolist() == [sum(1 - 2 * p for p in ps) for ps in parity], (n, c)


@pytest.mark.parametrize("n, d", [(8, 2), (8, 3), (10, 3)])
def test_every_block_weight_is_the_weight_of_the_rebuilt_table(n, d):
    # candidate by candidate over a whole layer: the 0 and 1^n inputs are
    # periodic slots, and a pad bit set anywhere would add n to a weight
    orb = search._OrbitTables(n, enumerate_orbit_reps(n, d))
    total = 1 << len(orb.reps)
    for j0 in range(0, total, 1 << orb.k):
        weights = orb.weight(_block_rows(orb, j0)).tolist()
        for j in range(max(j0, 1), j0 + (1 << orb.k)):
            tt = sanf_truth_table(search._subset_sanf(n, orb.reps, j ^ (j >> 1)))
            assert weights[j - j0] == tt.weight, (n, d, j)


def test_orbit_tables_keep_no_input_sized_array():
    # the build scans all 2^n inputs, but what it keeps is orbit-sized
    orb = search._OrbitTables(16, enumerate_orbit_reps(16, 3))
    arrays = [v for v in vars(orb).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 7  # slots, coords, planes, tables, low, residues, fixed
    assert max(max(a.shape) for a in arrays) < 1 << 16
    assert orb.residues.shape == (16,) and len(orb.reach) == 16
    assert orb.fixed.shape == (orb.tables.shape[1] - orb.wf,)  # the periodic words


@pytest.mark.parametrize("n", range(3, 15))
def test_residue_tables_match_a_per_input_orbit_scan(n):
    # every layer of degree d <= 3: the orbits from `rotate` one input at a
    # time; a short orbit varies within a block when the table of one of the
    # block's first k representatives is 1 on it
    orbits = {}
    for x in range(1 << n):
        orbits.setdefault(min(rotate(x, l, n) for l in range(n)), []).append(x)
    full = sorted(m for m, xs in orbits.items() if len(xs) == n)
    short = [xs for xs in orbits.values() if len(xs) < n]
    periodic = sorted(x for xs in short for x in xs)
    half, bent = 1 << (n - 1), 1 << (n // 2 - 1)
    bent_weights = () if n % 2 else (half - bent, half + bent)
    for d in range(1, 4):
        orb = search._OrbitTables(n, enumerate_orbit_reps(n, d))
        assert orb.slots.tolist() == full + [0] * (-len(full) % 64) + periodic, (n, d)
        rots = [{rotate(r, l, n) for l in range(n)} for r in orb.reps[: orb.k]]
        varies = {}
        for xs in short:
            on = any(sum(m & xs[0] == m for m in ms) % 2 for ms in rots)
            varies.update(dict.fromkeys(xs, on))
        fixed = np.unpackbits(orb.fixed.view(np.uint8), bitorder="little").tolist()
        want = [int(not varies[x]) for x in periodic]
        assert fixed == want + [0] * (len(fixed) - len(want)), (n, d)
        sums = {0}
        for xs in short:
            if varies[xs[0]]:
                sums |= {(r + len(xs)) % n for r in sums}
        assert orb.residues.tolist() == [r in sums for r in range(n)], (n, d)
        reach = [
            tuple(w for w in bent_weights if any((c + r - w) % n == 0 for r in sums))
            for c in range(n)
        ]
        assert orb.reach == tuple(reach), (n, d)


@pytest.mark.parametrize(
    "n, d, shape", [(10, 4, (8, 4, 3)), (12, 3, (8, 4, 8)), (16, 3, (8, 5, 68))]
)
def test_sieve_planes_hold_odd_counts_in_n_bit_length_bits(n, d, shape):
    # (coords, n.bit_length() planes, table words): odd[c, i] is at most n
    assert search._OrbitTables(n, enumerate_orbit_reps(n, d)).planes.shape == shape


def test_table_build_memory_is_bounded():
    # one rotation at a time on 2-D arrays traces 4.4 MiB here; a butterfly
    # over (reps, 2^n) indicators traces 6.5 MiB and a (reps x n x orbits)
    # broadcast would add 18 MiB
    reps = enumerate_orbit_reps(16, 3)
    tracemalloc.start()
    try:
        search._OrbitTables(16, reps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20


def test_budget_error_names_the_shard_count():
    assert search.BUDGET == 1 << 24
    for shard, count, shards in ((None, 67108863, 4), ((0, 3), 22369621, 2)):
        with pytest.raises(CapacityError) as exc:
            exhaustive_search(SearchTask(10, 5, shard))
        assert str(exc.value) == (
            f"{count} candidates exceed the budget of 16777216: split into at "
            f"least {shards} shards or mark the task long-running"
        )


def test_budget_shard_count_is_the_exact_ceiling():
    # a third of 2^143 - 1 candidates: past 2^53 shards a float quotient
    # rounds, and its ceiling can fall short of the count
    with pytest.raises(CapacityError) as exc:
        exhaustive_search(SearchTask(14, 5, shard=(0, 3)))
    count, budget, shards = map(int, re.findall(r"\d+", str(exc.value)))
    assert count == ((1 << 143) - 1) // 3 and budget == search.BUDGET
    assert (shards - 1) * budget < count <= shards * budget


def _refuse_to_enumerate(n, w):
    raise AssertionError(f"enumerated the weight-{w} layer on n={n}")


@pytest.mark.parametrize("n, d", [(20, 6), (22, 11)])
def test_over_budget_search_is_refused_before_enumerating(monkeypatch, capsys, n, d):
    # 1,944 and 32,066 representatives: each count overflows a float, and the
    # second has decimals past Python's int-to-str limit
    monkeypatch.setattr(search, "enumerate_orbit_reps", _refuse_to_enumerate)
    with pytest.raises(CapacityError, match="exceed the budget of 16777216"):
        exhaustive_search(SearchTask(n, d))
    assert main(["search", "-n", str(n), "-d", str(d)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exceed the budget of 16777216: split into" in err
    assert "limit" not in err


def _refusal(call):
    """The CapacityError message of `call` and the traced peak bytes up to it."""
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as exc:
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return str(exc.value), peak


def _table_cap(n):
    return f"full 2^n tables are limited to n <= 22, got n={n}"


@pytest.mark.parametrize("n", [23, 30])
@pytest.mark.parametrize(
    "build",
    [sanf_truth_table, lambda sanf: is_bent(sanf_truth_table(sanf))],
    ids=["table", "is_bent"],
)
def test_tables_past_the_cap_are_refused_before_allocating(build, n):
    # a 2^30-entry table and its transform would need about 13 GiB
    msg, peak = _refusal(lambda: build(Sanf(n, (7,))))
    assert msg == _table_cap(n)
    assert peak < 1 << 20


@pytest.mark.parametrize("n", [23, 30])
def test_search_past_the_table_cap_is_refused_before_any_table(capsys, n):
    # one candidate, well inside the budget, but the orbit tables would hold
    # 2^n entries (over 4 GiB of temporaries at n = 30)
    msg, peak = _refusal(lambda: exhaustive_search(SearchTask(n, 1)))
    assert msg == _table_cap(n)
    assert peak < 1 << 20
    assert main(["search", "-n", str(n), "-d", "1"]) == 2
    assert capsys.readouterr().err == f"error: {_table_cap(n)}\n"


@pytest.mark.parametrize("n, d", [(24, 3), (30, 15)])
def test_over_budget_search_past_the_table_cap_gets_the_cap_message(monkeypatch, capsys, n, d):
    # 85 and 5,170,604 representatives, far over the budget; a shard count
    # would be advice that fails, since every shard is refused by the cap too
    monkeypatch.setattr(search, "enumerate_orbit_reps", _refuse_to_enumerate)
    for shard in (None, (0, 4)):
        with pytest.raises(CapacityError, match=f"^{re.escape(_table_cap(n))}$"):
            exhaustive_search(SearchTask(n, d, shard))
    for shard in ([], ["--shard", "0/4"]):
        assert main(["search", "-n", str(n), "-d", str(d), *shard]) == 2
        assert capsys.readouterr().err == f"error: {_table_cap(n)}\n"


def test_unprintable_counts_are_stated_as_powers_of_two():
    with pytest.raises(CapacityError) as exc:
        exhaustive_search(SearchTask(22, 11))
    assert str(exc.value) == (
        "~2^32066 candidates exceed the budget of 16777216: split into at "
        "least ~2^32042 shards or mark the task long-running"
    )
    with pytest.raises(CapacityError) as exc:
        search_crosscheck(22, 11)
    assert str(exc.value) == "crosscheck limited to 2^14 candidates, got ~2^32066"


def test_long_run_overrides_the_budget():
    res = exhaustive_search(SearchTask(8, 3, long_run=True))
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
    assert last["stats"]["candidates"] == 127
    assert set(last["stats"]) == set(search._STATS)


def test_an_empty_shard_writes_one_record(tmp_path):
    # 3 candidates in 5 shards: shard 0 is the empty range [1, 1), and its
    # record tells "finished, empty" from "never ran"
    path = tmp_path / "empty.jsonl"
    res = exhaustive_search(SearchTask(4, 2, shard=(0, 5)), checkpoint_path=str(path))
    assert (res.candidates, res.bent) == (0, ())
    (record,) = [json.loads(line) for line in path.read_text().splitlines()]
    assert record["range"] == [1, 1] and record["shard"] == [0, 5]
    assert record["candidates_tested"] == record["stats"]["candidates"] == 0
    cli_path = tmp_path / "cli.jsonl"
    argv = ["search", "-n", "4", "-d", "2", "--shard", "0/5", "--checkpoint", str(cli_path)]
    assert main(argv) == 0
    assert json.loads(cli_path.read_text())["range"] == [1, 1]


def test_task_validation():
    with pytest.raises(ValueError):
        SearchTask(8, 2, shard=(4, 4))
    with pytest.raises(ValueError):
        SearchTask(8, 2, shard=(-1, 4))
    with pytest.raises(ValueError):
        SearchTask(8, 2, shard=(0, 0))


@pytest.mark.parametrize(
    "args, field",
    [
        ((8, 3, (True, 2)), "shard index"),
        ((8, 3, (1, 2.0)), "shard total"),
        ((8, 3, (1.0, 2)), "shard index"),
        ((8, True), "d"),
        ((True, 1), "n"),
        ((8.0, 3), "n"),
    ],
)
def test_task_fields_must_be_ints_and_not_bools(args, field):
    # (True, 2) would run as shard (1, 2) under another params hash, and
    # SearchTask(True, 1) used to reach the search and fail in formatting
    with pytest.raises(ValueError, match=f"^{field} must be an int, got "):
        SearchTask(*args)


@pytest.mark.parametrize("shard", [[0, 2], (0, 2)])
def test_a_shard_is_stored_as_a_tuple(shard):
    # a list shard made the frozen task unhashable and recorded another params_hash
    task = SearchTask(8, 3, shard)
    assert task.shard == (0, 2) and task == SearchTask(8, 3, (0, 2))
    assert hash(task) == hash(SearchTask(8, 3, (0, 2)))
    assert exhaustive_search(task).as_dict()["params_hash"] == "92946f56bafc9e3d"


@pytest.mark.parametrize("shard", [(0, 2, 5), (0,), [], 5, "ab/c"])
def test_a_shard_that_is_not_a_pair_is_refused(shard):
    with pytest.raises(ValueError, match=r"^shard must be \(index, total\), got "):
        SearchTask(8, 3, shard)


def test_result_serialization():
    res = exhaustive_search(SearchTask(6, 2))
    d = res.as_dict()
    assert d["n"] == 6 and d["d"] == 2
    assert d["candidates_tested"] == 7
    assert d["bent"] == ["x1x4", "x1x2+x1x3+x1x4"]
    assert d["stats"]["candidates"] == 7 and d["stats"]["hits"] == 2


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
    # The valuation route reads the monomial list at any list size, so
    # every candidate is checked, the 64 past 24 monomials too.
    assert rep.valuation_checked == 127


def test_crosscheck_capacity_guard():
    with pytest.raises(CapacityError):
        search_crosscheck(12, 4)


@pytest.mark.parametrize("n, d", [(22, 11), (30, 15)])
def test_crosscheck_cap_is_checked_before_enumerating(monkeypatch, n, d):
    monkeypatch.setattr(search, "enumerate_orbit_reps", _refuse_to_enumerate)
    with pytest.raises(CapacityError, match="crosscheck limited to 2\\^14 candidates"):
        search_crosscheck(n, d)


@pytest.mark.parametrize("n", [23, 30])
def test_crosscheck_past_the_table_cap_is_refused_before_any_table(n):
    # one candidate, x1, passes the count check, but no route decides it:
    # the spectrum needs a 2^n table (several GiB at n = 30), valuation
    # stops at n = 20, and gcd and rank take degree 2 only
    msg, peak = _refusal(lambda: search_crosscheck(n, 1))
    assert msg == f"no bentness route is feasible at n={n}"
    assert peak < 1 << 20


def test_crosscheck_past_the_table_cap_takes_the_degree2_routes():
    # 4,095 candidates at n = 24, answered by gcd and rank with no table
    rep = search_crosscheck(24, 2)
    assert rep.candidates == 4095
    assert rep.bent_count == len(classify_degree2(24))
    assert (rep.valuation_checked, rep.degree2_checked) == (0, 4095)


def test_degree2_verdicts_take_all_four_routes():
    for n in range(2, 13, 2):
        reps = enumerate_orbit_reps(n, 2)
        for subset in range(1, 1 << len(reps)):
            sanf = search._subset_sanf(n, reps, subset)
            bent, methods = bent_verdict(sanf)
            assert methods == ["walsh", "valuation", "gcd", "rank"], format_sanf(sanf)
            assert bent == is_bent(sanf_truth_table(sanf)), format_sanf(sanf)


def test_degree2_verdicts_at_odd_n_leave_out_the_refusing_routes():
    # valuation and gcd take even n only; past the table cap only rank is left
    assert bent_verdict(parse_sanf("x1x2", 9)) == (False, ["walsh", "rank"])
    assert bent_verdict(parse_sanf("x1x2+x1x3", 23)) == (False, ["rank"])


def test_a_rule_that_rejects_a_bent_function_is_unsound(monkeypatch):
    # x1x4 is the first bent candidate of n = 6 d = 2 in subset order
    def always_fires(sanf):
        return [("shift-chain", NonexistenceReport(sanf.n, "shift-chain", NOT_BENT))]

    monkeypatch.setattr(search, "all_checks", always_fires)
    with pytest.raises(InternalInconsistencyError) as exc:
        search_crosscheck(6, 2)
    assert str(exc.value) == "unsound rule shift-chain on bent x1x4"


def test_a_route_that_disagrees_names_the_sanf(monkeypatch):
    monkeypatch.setattr(search, "is_bent_quadratic", lambda anf: True)
    with pytest.raises(InternalInconsistencyError) as exc:
        search_crosscheck(6, 2)
    assert str(exc.value) == (
        "methods disagree on x1x2: walsh=False, valuation=False, gcd=False, rank=True"
    )

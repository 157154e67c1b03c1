"""Acceptance gate: one test per release criterion, each with its bound.

Every test prints a single summary line so a verbose run reads as a
checklist.  Time limits are generous ceilings, not benchmarks.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from rotbent import (
    AnfForm,
    CapacityError,
    SearchTask,
    all_checks,
    all_cover_coefficients,
    all_cover_from_spectrum,
    anf_from_truth_table,
    bent_by_valuation,
    circulant_nonsingular,
    classify_degree2,
    enumerate_orbit_reps,
    exhaustive_search,
    format_sanf,
    is_bent,
    is_bent_degree2_rots,
    is_bent_quadratic,
    orbit_count,
    orbit_expand,
    parse_sanf,
    rots_quadratic_poly,
    sanf_truth_table,
    truth_table_from_anf,
    verify_witness,
    walsh_spectrum,
)
from rotbent.boolfn import TruthTable
from rotbent.cli import main
from rotbent.nonexistence import check_block_pair, check_gap_bounds
from rotbent.rotsym import sanf_from_masks


def all_sanfs(n, d):
    reps = enumerate_orbit_reps(n, d)
    for size in range(1, len(reps) + 1):
        for chosen in itertools.combinations(reps, size):
            yield sanf_from_masks(chosen, n)


def test_criterion_1_degree2_classification_on_eight_variables(capsys):
    start = time.perf_counter()
    got = [format_sanf(s) for s in classify_degree2(8)]
    elapsed = time.perf_counter() - start
    assert got == [
        "x1x5",
        "x1x2+x1x5",
        "x1x3+x1x5",
        "x1x4+x1x5",
        "x1x2+x1x3+x1x5",
        "x1x2+x1x4+x1x5",
        "x1x3+x1x4+x1x5",
        "x1x2+x1x3+x1x4+x1x5",
    ]
    assert elapsed < 1.0
    with capsys.disabled():
        print(f"\n[1] PASS degree-2 classification n=8: 8/8 exact ({elapsed:.3f}s)")


def test_criterion_2_flagship_pair_rejected_by_both_routes(capsys):
    start = time.perf_counter()
    sanf = parse_sanf("x1x2x3+x1x2x4", 6)
    by_walsh = is_bent(sanf_truth_table(sanf))
    by_valuation = bent_by_valuation(orbit_expand(sanf))
    assert by_walsh is False and by_valuation is False
    assert main(["bent-check", "-n", "6", "x1x2x3+x1x2x4"]) == 1
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert elapsed < 1.0
    with capsys.disabled():
        print(f"[2] PASS x1x2x3+x1x2x4 on n=6 not bent, both routes ({elapsed:.3f}s)")


def test_criterion_3_ten_variable_searches_are_empty(capsys):
    start = time.perf_counter()
    res3 = exhaustive_search(SearchTask(10, 3))
    t3 = time.perf_counter() - start
    assert res3.candidates == 4095 and res3.bent == ()
    assert t3 < 1.0

    start = time.perf_counter()
    res4 = exhaustive_search(SearchTask(10, 4))
    t4 = time.perf_counter() - start
    assert res4.candidates == (1 << 22) - 1 and res4.bent == ()
    assert res4.stats["weight_survivors"] == 78116
    assert t4 < 600.0

    # Degree 5 stays behind the long-run flag at the 2^24 budget.
    with pytest.raises(CapacityError) as exc:
        exhaustive_search(SearchTask(10, 5))
    assert "at least 4" in str(exc.value)
    with capsys.disabled():
        print(
            f"[3] PASS n=10 searches: d=3 0/4095 ({t3:.3f}s), "
            f"d=4 0/4194303 ({t4:.1f}s), d=5 gated"
        )


def test_criterion_4_valuation_criterion_matches_walsh_everywhere(capsys):
    start = time.perf_counter()
    checked = 0

    def check_one(sanf):
        nonlocal checked
        anf = orbit_expand(sanf)
        monos = sorted(anf.monomials)
        if len(monos) > 24:
            return
        tt = sanf_truth_table(sanf)
        direct = all_cover_coefficients(monos, sanf.n)
        via_spectrum = all_cover_from_spectrum(walsh_spectrum(tt))
        assert np.array_equal(direct, via_spectrum), sanf
        assert bent_by_valuation(anf) == is_bent(tt), sanf
        checked += 1

    for n in (4, 6):
        for d in (2, 3):
            for sanf in all_sanfs(n, d):
                check_one(sanf)

    rng = random.Random(2024)
    pool = enumerate_orbit_reps(8, 2) + enumerate_orbit_reps(8, 3)
    drawn = 0
    while drawn < 200:
        chosen = rng.sample(pool, k=rng.randint(1, 3))
        sanf = sanf_from_masks(chosen, 8)
        if len(orbit_expand(sanf).monomials) > 24:
            continue
        check_one(sanf)
        drawn += 1

    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(
            f"[4] PASS valuation == Walsh on {checked} functions, "
            f"coefficient routes identical ({elapsed:.2f}s)"
        )


def test_criterion_5_four_degree2_routes_agree(capsys):
    start = time.perf_counter()
    checked = 0
    for n in (4, 6, 8, 10):
        for sanf in all_sanfs(n, 2):
            by_gcd = is_bent_degree2_rots(sanf)
            by_circ = circulant_nonsingular(rots_quadratic_poly(sanf), n)
            by_rank = is_bent_quadratic(orbit_expand(sanf))
            by_walsh = is_bent(sanf_truth_table(sanf))
            assert by_gcd == by_circ == by_rank == by_walsh, sanf
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == sum((1 << (n // 2)) - 1 for n in (4, 6, 8, 10))
    assert elapsed < 10.0
    with capsys.disabled():
        print(f"[5] PASS degree-2 routes agree on {checked} candidates ({elapsed:.2f}s)")


def test_criterion_6_rules_never_reject_a_bent_function(capsys):
    start = time.perf_counter()
    functions = 0
    witnesses = 0
    for n in (6, 8, 10):
        for sanf in all_sanfs(n, 3):
            bent = is_bent(sanf_truth_table(sanf))
            for name, rep in all_checks(sanf):
                if rep.verdict == "NOT_BENT":
                    assert not bent, (name, sanf)
                if rep.witness_u0 is not None:
                    assert verify_witness(sanf, rep), (name, sanf)
                    witnesses += 1
            functions += 1
    elapsed = time.perf_counter() - start
    assert functions == 15 + 127 + 4095
    assert elapsed < 60.0
    with capsys.disabled():
        print(
            f"[6] PASS soundness sweep over {functions} degree-3 functions, "
            f"{witnesses} witnesses re-verified ({elapsed:.1f}s)"
        )


def test_criterion_7_rule_separation_on_the_ten_variable_pair(capsys):
    sanf = parse_sanf("x1x2x3+x1x2x4", 10)
    pair = check_block_pair(sanf)
    bounds = check_gap_bounds(sanf)
    assert pair.verdict == "NOT_BENT"
    assert bounds.verdict == "INCONCLUSIVE"
    assert "evaluates 2 > 3, false" in bounds.detail
    with capsys.disabled():
        print("[7] PASS n=10 pair: block-pair fires, gap-bounds declines (2 > 3 false)")


def test_criterion_8_counting_and_transform_identities(capsys):
    start = time.perf_counter()

    def necklaces(n, w):
        total = 0
        for d in range(1, n + 1):
            if n % d or w % d:
                continue
            phi = sum(1 for j in range(1, d + 1) if math.gcd(j, d) == 1)
            total += phi * math.comb(n // d, w // d)
        return total // n

    pairs = 0
    for n in range(1, 15):
        for w in range(1, n + 1):
            assert orbit_count(n, w) == necklaces(n, w), (n, w)
            pairs += 1
    assert orbit_count(10, 4) == 22

    rng = random.Random(88)
    for _ in range(1000):
        bits = np.array([rng.randint(0, 1) for _ in range(256)], dtype=np.uint8)
        ws = walsh_spectrum(TruthTable(8, bits))
        assert int(np.sum(ws.values.astype(np.int64) ** 2)) == 4**8

    for _ in range(1000):
        n = rng.randint(1, 10)
        masks = rng.sample(range(1 << n), k=rng.randint(0, min(6, 1 << n)))
        anf = AnfForm(n, frozenset(masks))
        assert anf_from_truth_table(truth_table_from_anf(anf)) == anf

    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(
            f"[8] PASS {pairs} necklace counts, 1000 Parseval checks, "
            f"1000 transform round-trips ({elapsed:.2f}s)"
        )

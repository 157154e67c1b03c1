"""Command-line surface: exit codes, output texts, JSON round-trips."""

import argparse
import contextlib
import io
import json
import random
import re
import tracemalloc

import pytest

from rotbent import (
    Sanf,
    all_checks,
    all_cover_coefficients,
    classify_degree2,
    enumerate_orbit_reps,
    format_sanf,
    mask_to_bits,
    orbit_expand,
    parse_sanf,
    sanf_truth_table,
    verify_witness,
    walsh_spectrum,
)
from rotbent import gf2poly, search
from rotbent.cli import build_parser, main
from rotbent.covercoef import cover_coefficient_from_spectrum, two_adic_valuation


def run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse-level usage failures
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def run_traced(argv, capsys):
    """`run` under tracemalloc: its result and the traced peak bytes."""
    tracemalloc.start()
    try:
        result = run(argv, capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (*result, peak)


def test_bent_check_affirmative(capsys):
    code, out, _ = run(["bent-check", "-n", "2", "x1x2"], capsys)
    assert code == 0
    assert out == "x1x2 on n=2: bent [walsh, valuation, gcd, rank]\n"


def test_bent_check_negative(capsys):
    code, out, _ = run(["bent-check", "-n", "6", "x1x2x3+x1x2x4"], capsys)
    assert code == 1
    assert out == "x1x2x3+x1x2x4 on n=6: not bent [walsh, valuation]\n"


def test_bent_check_odd_n(capsys):
    code, out, _ = run(["bent-check", "-n", "7", "x1x2x3"], capsys)
    assert code == 1
    assert "not bent" in out


def test_bent_check_json(capsys):
    code, out, _ = run(
        ["bent-check", "-n", "6", "x1x2x3+x1x2x4", "--format", "json"], capsys
    )
    assert code == 1
    record = json.loads(out)
    assert record == {
        "n": 6,
        "sanf": "x1x2x3+x1x2x4",
        "bent": False,
        "methods": ["walsh", "valuation"],
    }


def test_bent_check_disagreement_is_exit_3(monkeypatch, capsys):
    monkeypatch.setattr(search, "bent_by_valuation", lambda anf: False)
    code, out, err = run(["bent-check", "-n", "2", "x1x2"], capsys)
    assert (code, out) == (3, "")
    assert err == (
        "inconsistency: methods disagree on x1x2: "
        "walsh=True, valuation=False, gcd=True, rank=True\n"
    )


def test_parse_error_is_usage_error(capsys):
    code, _, err = run(["bent-check", "-n", "6", "garbage"], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_capacity_error_is_usage_error(capsys):
    # No feasible route for degree 3 at n=24: the table cap and the
    # coefficient caps both refuse, before allocating, and the command
    # reports that instead of grinding.
    code, out, err, peak = run_traced(["bent-check", "-n", "24", "x1x2x3"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: no bentness route is feasible at n=24\n"
    assert peak < 1 << 20


def test_spectrum_past_the_table_cap_refuses_before_allocating(capsys):
    code, out, err, peak = run_traced(["spectrum", "-n", "23", "x1x2x3"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: full 2^n tables are limited to n <= 22, got n=23\n"
    assert peak < 1 << 20


@pytest.mark.parametrize("n", [24, 26])
def test_degree2_bent_check_past_the_table_cap(capsys, n):
    # gcd and rank answer alone, with no table; the verdict is membership in
    # the classification
    bent = set(classify_degree2(n))
    reps = enumerate_orbit_reps(n, 2)
    picks = random.Random(n).sample(range(1, 1 << len(reps)), 40)
    sanfs = sorted(bent, key=format_sanf)[:8] + [
        Sanf(n, tuple(r for i, r in enumerate(reps) if s >> i & 1)) for s in picks
    ]
    seen = set()
    for sanf in sanfs:
        argv = ["bent-check", "-n", str(n), format_sanf(sanf), "--format", "json"]
        code, out, _ = run(argv, capsys)
        record = json.loads(out)
        assert record["methods"] == ["gcd", "rank"]
        assert record["bent"] == (sanf in bent) and code == (0 if sanf in bent else 1)
        seen.add(record["bent"])
    assert seen == {True, False}


def test_classify_text(capsys):
    code, out, _ = run(["classify-deg2", "-n", "8"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9
    assert lines[0] == "x1x5"
    assert lines[-1] == "8 bent degree-2 functions on n=8"


def test_classify_json_matches_text(capsys):
    code, text, _ = run(["classify-deg2", "-n", "10"], capsys)
    assert code == 0
    *names, last = text.splitlines()
    code, out, _ = run(["classify-deg2", "-n", "10", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == {"n": 10, "bent": names}
    assert names == [format_sanf(s) for s in classify_degree2(10)]
    assert last == f"{len(names)} bent degree-2 functions on n=10"


def test_classify_odd_n(capsys):
    code, _, err = run(["classify-deg2", "-n", "7"], capsys)
    assert code == 2
    assert "even" in err


def test_classify_refuses_n_past_the_cap(capsys):
    code, out, err = run(["classify-deg2", "-n", "32"], capsys)
    assert code == 2
    assert out == ""
    assert "n must be an int in [1, 30]" in err


def test_classify_disagreement_is_exit_3(monkeypatch, capsys):
    monkeypatch.setattr(gf2poly, "is_bent_degree2_rots", lambda sanf: False)
    code, _, err = run(["classify-deg2", "-n", "18"], capsys)
    assert code == 3
    assert err.startswith("inconsistency:")


def test_spectrum(capsys):
    code, out, _ = run(["spectrum", "-n", "2", "x1x2"], capsys)
    assert code == 0
    assert out == "2 2 2 -2\n"


@pytest.mark.parametrize("n, text", [(2, "x1x2"), (6, "x1x2x3+x1x2x4"), (8, "x1x5")])
def test_spectrum_json_matches_text(n, text, capsys):
    values = walsh_spectrum(sanf_truth_table(parse_sanf(text, n))).values.tolist()
    code, out, _ = run(["spectrum", "-n", str(n), text], capsys)
    assert (code, out) == (0, " ".join(map(str, values)) + "\n")
    code, out, _ = run(["spectrum", "-n", str(n), text, "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == {"n": n, "sanf": text, "values": values}


def test_spectrum_output_is_byte_identical_to_json_dumps_and_join(capsys):
    # the spectrum is written through its distinct values; the bytes are those
    # of json.dumps and " ".join over the whole value list, bent or not; n = 1
    # and 3 are odd and have fewer than 16 entries
    rng = random.Random(16)
    for n in (1, 3, *range(4, 17, 2)):
        texts = {1: ["x1"], 3: ["x1x2", "x1x2x3", "x1+x1x2"]}.get(n)
        if texts is None:
            texts = [f"x1x{n // 2 + 1}", "x1x2x3", "x1x2+x1x3x4"]
            reps = [r for w in (2, 3, 4) for r in enumerate_orbit_reps(n, w)]
            texts.append(format_sanf(Sanf(n, tuple(rng.sample(reps, 4)))))
        for text in texts:
            sanf = parse_sanf(text, n)
            values = walsh_spectrum(sanf_truth_table(sanf)).values.tolist()
            want = json.dumps({"n": n, "sanf": format_sanf(sanf), "values": values})
            code, out, _ = run(["spectrum", "-n", str(n), text, "--format", "json"], capsys)
            assert (code, out) == (0, want + "\n"), (n, text)
            code, out, _ = run(["spectrum", "-n", str(n), text], capsys)
            assert (code, out) == (0, " ".join(map(str, values)) + "\n"), (n, text)


@pytest.mark.parametrize(
    "n, text, u, value, v2",
    [
        (2, "x1x2", "11", -2, 1),
        (2, "x1x2", "10", 0, "inf"),
        (20, "x1x2x3+x1x2x4", "1" * 18 + "00", -832, 6),
    ],
)
def test_hcoeff_single_json_matches_text(n, text, u, value, v2, capsys):
    code, out, _ = run(["hcoeff", "-n", str(n), text, "--u", u], capsys)
    assert (code, out) == (0, f"value={value} v2={v2}\n")
    code, out, _ = run(["hcoeff", "-n", str(n), text, "--u", u, "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == {"n": n, "sanf": text, "u": u, "value": value, "v2": v2}


def test_hcoeff_single(capsys):
    code, out, _ = run(["hcoeff", "-n", "2", "x1x2", "--u", "11"], capsys)
    assert code == 0
    assert out == "value=-2 v2=1\n"
    code, out, _ = run(["hcoeff", "-n", "2", "x1x2", "--u", "00"], capsys)
    assert code == 0
    assert out == "value=1 v2=0\n"
    # x1x2x3+x1x2x4 expands to 2n > 24 monomials: a mask of weight <= 20 is
    # read off the monomial lattice at any n, and agrees with the spectrum
    u = "1" * 18 + "00"  # x1...x18
    spec = walsh_spectrum(sanf_truth_table(parse_sanf("x1x2x3+x1x2x4", 20)))
    assert cover_coefficient_from_spectrum(spec, (1 << 18) - 1).value == -832
    code, out, _ = run(["hcoeff", "-n", "20", "x1x2x3+x1x2x4", "--u", u], capsys)
    assert (code, out) == (0, "value=-832 v2=6\n")
    code, out, _ = run(["hcoeff", "-n", "24", "x1x2x3+x1x2x4", "--u", u + "0000"], capsys)
    assert (code, out) == (0, "value=-832 v2=6\n")
    # weight 21 is one table of 2^21 entries at any list size; weight 23 is
    # past the table cap and the subset walk's 24 monomials: both are named
    code, out, _ = run(["hcoeff", "-n", "24", "x1x2x3+x1x2x4", "--u", "1" * 21 + "000"], capsys)
    assert (code, out) == (0, "value=-1920 v2=7\n")
    code, out, err = run(
        ["hcoeff", "-n", "24", "x1x2x3+x1x2x4", "--u", "1" * 23 + "0"], capsys
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: H(u) at |u| = 23: full 2^n tables are limited to n <= 22, got n=23; "
        "the subset walk takes at most 24 monomials, got 48\n"
    )


def test_hcoeff_all_json(capsys):
    code, out, _ = run(
        ["hcoeff", "-n", "2", "x1x2", "--all-u", "--format", "json"], capsys
    )
    assert code == 0
    record = json.loads(out)
    assert len(record["values"]) == 4
    by_u = {row["u"]: row for row in record["values"]}
    assert by_u["11"] == {"u": "11", "value": -2, "v2": 1}
    assert by_u["10"] == {"u": "10", "value": 0, "v2": "inf"}
    assert by_u["00"]["value"] == 1


def test_hcoeff_all_u_refuses_before_allocating(capsys):
    # the n > 20 guard fires before any 2^n array exists: 2^24 int64 would be
    # hundreds of MiB
    code, _, err, peak = run_traced(["hcoeff", "-n", "24", "x1x2x3", "--all-u"], capsys)
    assert code == 2
    assert err == "error: full coefficient array needs n <= 20\n"
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "n, text",
    [
        (1, "x1"),
        (3, "x1x2"),
        (3, "x1x2x3"),
        (8, "x1x2x4"),
        (8, "x1x2+x1x3"),
        (9, "x1x2x3+x1x2x5"),
        (10, "x1x2x3+x1x2x5"),
        (10, "x1x6"),
        (12, "x1x3x4"),
        (16, "x1x2x4"),
    ],
)
def test_hcoeff_all_u_matches_a_per_row_reference(n, text, capsys):
    sanf = parse_sanf(text, n)
    harr = all_cover_coefficients(sorted(orbit_expand(sanf).monomials), n)
    rows = []
    for u in sorted(range(1 << n), key=lambda u: (u.bit_count(), u)):
        v2 = two_adic_valuation(int(harr[u]))
        rows.append({"u": mask_to_bits(u, n), "value": int(harr[u]), "v2": v2})
        if v2 == float("inf"):
            rows[-1]["v2"] = "inf"
    # every case has negative values, and all past n = 1 (x1: H = 1, -2) have
    # H = 0 rows, whose v2 prints as "inf"
    assert any(r["value"] < 0 for r in rows)
    assert any(r["v2"] == "inf" for r in rows) or n == 1
    want_json = json.dumps({"n": n, "sanf": format_sanf(sanf), "values": rows}) + "\n"
    want_text = "".join(f"u={r['u']} value={r['value']} v2={r['v2']}\n" for r in rows)
    argv = ["hcoeff", "-n", str(n), text, "--all-u"]
    assert run(argv + ["--format", "json"], capsys) == (0, want_json, "")
    assert run(argv, capsys) == (0, want_text, "")


def test_nonexist_proved(capsys):
    code, out, _ = run(["nonexist", "-n", "8", "x1x2x3"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("shift-chain    NOT_BENT rule=shift-chain")


def test_nonexist_unproved_prints_table(capsys):
    code, out, _ = run(["nonexist", "-n", "10", "x1x2x4"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 5
    assert all("INCONCLUSIVE" in line for line in lines)


def test_nonexist_compare_table(capsys):
    code, out, _ = run(["nonexist", "-n", "10", "x1x2x3+x1x2x4"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    by_rule = {line.split()[0]: line for line in lines}
    assert "NOT_BENT" in by_rule["block-pair"]
    assert "INCONCLUSIVE" in by_rule["gap-bounds"]
    assert "evaluates 2 > 3, false" in by_rule["gap-bounds"]


def test_nonexist_single_rule(capsys):
    code, out, _ = run(
        ["nonexist", "-n", "8", "x1x2x3", "--rule", "gap-bounds"], capsys
    )
    assert code == 0
    assert out.startswith("gap-bounds     NOT_BENT rule=gap-bounds(i)")
    assert len(out.splitlines()) == 1
    # a chain fires here, but its witness fails the recompute: the report
    # names that chain rather than saying none fired
    code, out, _ = run(
        ["nonexist", "-n", "10", "x1x2x3+x1x3x6", "--rule", "shift-chain"], capsys
    )
    assert code == 1
    assert out == (
        "shift-chain    INCONCLUSIVE rule=shift-chain "
        "(witness did not verify (k=3 l=2 d1=3 chain of x1x2x3))\n"
    )


def test_nonexist_json(capsys):
    code, out, _ = run(["nonexist", "-n", "8", "x1x2x3", "--format", "json"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["not_bent"] is True
    assert set(record["reports"]) == {
        "shift-chain",
        "leading-block",
        "block-pair",
        "sparse-triple",
        "gap-bounds",
    }
    assert record["reports"]["shift-chain"]["witness_u0"] == "11111100"


def test_nonexist_marks_witnesses_beyond_numeric_reach(capsys):
    # x1x2x3+x1x2x4 at n=26: 52 monomials, 2^26 inputs and |u0| = 24, so no
    # cover route can recompute the block-pair witness and the rule declines
    argv = ["nonexist", "-n", "26", "x1x2x3+x1x2x4"]
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 1
    pair = json.loads(out)["reports"]["block-pair"]
    assert pair["verdict"] == "INCONCLUSIVE"
    assert pair["detail"] == "witness beyond numeric reach (k=8 chain of x1x2x3)"
    code, out, _ = run(argv, capsys)
    assert code == 1
    assert (
        "block-pair     INCONCLUSIVE rule=block-pair "
        "(witness beyond numeric reach (k=8 chain of x1x2x3))"
    ) in out.splitlines()
    # at n=24 the witness has |u0| = 21: one table of 2^21 entries recomputes
    # it from the 48 monomials, H(u0) = -1920 = -2^7 * 15
    code, out, _ = run(["nonexist", "-n", "24", "x1x2x3+x1x2x4"], capsys)
    assert code == 0
    assert (
        "block-pair     NOT_BENT rule=block-pair "
        "u0=111111111111111111111000 k=7 v2=7 (k=7 chain of x1x2x3)"
    ) in out.splitlines()
    # at n=22 the witness has |u0| = 18: one table recomputes it from the
    # 44 monomials, H(u0) = -832 = -2^6 * 13
    code, out, _ = run(["nonexist", "-n", "22", "x1x2x3+x1x2x4"], capsys)
    assert (
        "block-pair     NOT_BENT rule=block-pair "
        "u0=1111111111111111110000 k=6 v2=6 (k=6 chain of x1x2x3)"
    ) in out.splitlines()
    for n in (22, 24):
        for text in ("x1x2x3", "x1x2x3+x1x2x4", "x1x2x3+x1x3x8"):
            sanf = parse_sanf(text, n)
            for name, rep in all_checks(sanf):
                if rep.witness_u0 is not None:
                    assert verify_witness(sanf, rep), (n, text, name)
    code, out, _ = run(["nonexist", "-n", "12", "x1x2x3", "--format", "json"], capsys)
    reports = json.loads(out)["reports"]
    for name in ("shift-chain", "leading-block", "sparse-triple"):
        assert reports[name]["witness_u0"] is not None


def test_search_text(capsys):
    code, out, _ = run(["search", "-n", "8", "-d", "2"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "8 bent / 15 tested"
    assert "x1x5" in lines


def test_search_text_adds_one_stats_line(capsys):
    code, text, _ = run(["search", "-n", "8", "-d", "2"], capsys)
    assert code == 0
    code, out, _ = run(["search", "-n", "8", "-d", "2", "--format", "json"], capsys)
    data = json.loads(out)
    assert sorted(data) == [
        "bent", "candidates_tested", "d", "elapsed_s", "n", "params_hash", "range", "shard", "stats"
    ]
    *names, line, last = text.splitlines()
    assert names == data["bent"] and last == "8 bent / 15 tested"
    assert line.startswith("stats: ")
    fields = dict(kv.split("=") for kv in line[len("stats: ") :].split())
    counts = ["candidates", "residue_skipped", "weight_survivors", "sieve_survivors"]
    counts += ["spectral_tests", "hits"]
    stages = ["tables_s", "walk_s", "sieve_s", "confirm_s"]
    assert list(fields) == counts + stages
    assert [int(fields[k]) for k in counts] == [data["stats"][k] for k in counts]
    assert [int(fields[k]) for k in counts] == [15, 0, 8, 8, 8, 8]
    for k in stages:
        assert re.fullmatch(r"\d+\.\d{3}", fields[k])


def test_search_lists_hits_in_subset_index_order(tmp_path, capsys):
    # stdout, the --out file and the last checkpoint record list the same
    # hits in the same order
    out, log = tmp_path / "result.json", tmp_path / "run.jsonl"
    argv = ["search", "-n", "8", "-d", "2", "--format", "json"]
    code, text, _ = run(argv + ["--out", str(out), "--checkpoint", str(log)], capsys)
    assert code == 0
    printed = json.loads(text)["bent"]
    assert len(printed) == 8 and printed[0] == "x1x5"
    assert json.loads(out.read_text())["bent"] == printed
    assert json.loads(log.read_text().splitlines()[-1])["bent"] == printed


@pytest.mark.parametrize(
    "shard, lo, hi",
    [(None, 1, 1 << 22), ("1/3", 1 + ((1 << 22) - 1) // 3, 1 + ((1 << 22) - 1) * 2 // 3)],
)
def test_search_writes_one_record_everywhere(tmp_path, capsys, shard, lo, hi):
    # n = 10 d = 4 spans several chunks of 2^20 indices: each checkpoint line
    # covers [lo, chunk end), and its counts and hits are those of that range;
    # stdout, --out and the last line are the one final record
    log, out = tmp_path / "run.jsonl", tmp_path / "result.json"
    argv = ["search", "-n", "10", "-d", "4", "--format", "json"]
    argv += ["--checkpoint", str(log), "--out", str(out)] + (["--shard", shard] if shard else [])
    code, text, err = run(argv, capsys)
    assert (code, err) == (0, "")
    records = [json.loads(line) for line in log.read_text().splitlines()]
    ends = [min(end, hi) for end in range(lo + (1 << 20), hi + (1 << 20), 1 << 20)]
    assert [r["range"] for r in records] == [[lo, end] for end in ends]
    assert len(records) == (4 if shard is None else 2)
    for r in records:
        assert r["range"][1] - r["range"][0] == r["candidates_tested"] == r["stats"]["candidates"]
        assert r["stats"]["hits"] == len(r["bent"])
        assert r["shard"] == (None if shard is None else [1, 3])
    assert json.loads(text) == json.loads(out.read_text()) == records[-1]


@pytest.mark.parametrize("shard", ["1", "a/b", "1/2/3"])
def test_search_shard_syntax(shard, capsys):
    code, out, err = run(["search", "-n", "8", "-d", "2", "--shard", shard], capsys)
    assert (code, out) == (2, "")
    assert err == "error: shard must look like INDEX/TOTAL, e.g. 0/4\n"


def test_search_shard(capsys):
    # 127 candidates over 4 shards: the first range is [1, 32), so 31.
    code, out, _ = run(["search", "-n", "8", "-d", "3", "--shard", "0/4"], capsys)
    assert code == 0
    assert out.splitlines()[-1].endswith("/ 31 tested")


def test_search_out_file(tmp_path, capsys):
    path = tmp_path / "result.json"
    code, _, _ = run(["search", "-n", "8", "-d", "2", "--out", str(path)], capsys)
    assert code == 0
    record = json.loads(path.read_text())
    assert record["candidates_tested"] == 15
    assert len(record["bent"]) == 8


def test_search_out_replaces_by_rename(tmp_path, capsys):
    path = tmp_path / "result.json"
    path.write_text("stale\n")
    code, _, _ = run(["search", "-n", "8", "-d", "2", "--out", str(path)], capsys)
    assert code == 0
    assert json.loads(path.read_text())["candidates_tested"] == 15
    assert [p.name for p in tmp_path.iterdir()] == ["result.json"]  # no temp file left


def test_search_out_untouched_by_a_refused_run(tmp_path, capsys):
    path = tmp_path / "result.json"
    path.write_bytes(b"earlier result\n")
    argv = ["search", "-n", "10", "-d", "5", "--out", str(path)]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert "exceed the budget" in err
    assert path.read_bytes() == b"earlier result\n"
    assert [p.name for p in tmp_path.iterdir()] == ["result.json"]


@pytest.mark.parametrize("option", ["--out", "--checkpoint"])
def test_search_unwritable_path_is_a_usage_error(tmp_path, capsys, option):
    # a missing directory is an error (exit 2), not a "not bent" verdict (exit 1)
    path = tmp_path / "missing" / "result.json"
    code, out, err = run(["search", "-n", "8", "-d", "2", option, str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno 2] No such file or directory:") and str(path.parent) in err
    assert list(tmp_path.iterdir()) == []


def test_search_budget_guidance(capsys):
    # the budget is 2^24 candidates; the guard refuses before any table is built
    for extra, count, shards in (([], 67108863, 4), (["--shard", "0/3"], 22369621, 2)):
        code, out, err = run(["search", "-n", "10", "-d", "5", *extra], capsys)
        assert (code, out) == (2, ""), extra
        assert (
            f"{count} candidates exceed the budget of 16777216: "
            f"split into at least {shards} shards"
        ) in err, extra


def test_search_ignores_the_threads_variable(tmp_path, monkeypatch, capsys):
    # one run path: the checkpoint records do not depend on the environment
    argv = ["search", "-n", "8", "-d", "3"]
    records = {}
    monkeypatch.delenv("ROTBENT_THREADS", raising=False)
    for threads in ("", "2"):
        if threads:
            monkeypatch.setenv("ROTBENT_THREADS", threads)
        path = tmp_path / f"run{threads}.jsonl"
        assert run(argv + ["--checkpoint", str(path)], capsys)[0] == 0
        records[threads] = [json.loads(line) for line in path.read_text().splitlines()]
        for record in records[threads]:  # drop the timings
            del record["elapsed_s"]
            record["stats"] = {k: v for k, v in record["stats"].items() if k[-2:] != "_s"}
    assert records[""] == records["2"]
    assert [(r["shard"], r["range"], r["candidates_tested"]) for r in records[""]] == [
        (None, [1, 128], 127)
    ]


def test_removed_options_are_usage_errors(capsys):
    removed = [
        ["search", "-n", "8", "-d", "3", "--mode", "full"],
        ["search", "-n", "8", "-d", "3", "--budget", "100"],
        ["bent-check", "-n", "6", "x1x4", "--method", "walsh"],
        ["nonexist", "-n", "6", "x1x2x3", "--compare"],
    ]
    for argv in removed:
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert "unrecognized arguments" in err, argv


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run(["frobnicate"], capsys)
    assert code == 2


def test_one_parser_serves_every_call(monkeypatch):
    # option sequences whose state could leak between calls on a shared parser
    sequences = [
        ["hcoeff -n 6 x1x2x3 --all-u", "hcoeff -n 6 x1x2x3 --u 111100"],
        [
            "nonexist -n 6 x1x2x3 --rule shift-chain",
            "nonexist -n 6 x1x2x3",
        ],
        ["search -n 6 -d 2 --shard 0/2", "search -n 6 -d 2"],
        ["bent-check -n 6 x1x4 --format json", "bent-check -n 6 x1x4"],
    ]
    stats = re.compile(r"_s=[0-9.]+")  # stage timings vary from run to run

    def output(call):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = call()
        return code, stats.sub("_s=T", buf.getvalue())

    assert build_parser() is build_parser()
    for seq in sequences:
        for argv in map(str.split, seq):
            fresh = build_parser.__wrapped__().parse_args(argv)
            assert vars(build_parser().parse_args(argv)) == vars(fresh)
            assert output(lambda: main(argv)) == output(lambda: fresh.func(fresh)), argv

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for seq in sequences:
        output(lambda: main(seq[0].split()))
    assert built == []  # main builds no parser once one exists

"""Command-line front end.

Exit codes: 0 for success (and affirmative predicate verdicts), 1 for a
negative predicate verdict (not bent, or no rule fires), 2 for usage,
capacity and file errors, 3 when internal cross-checks disagree.

`bent-check` runs and cross-checks every feasible route (`search.bent_verdict`);
past a library size cap a command prints the refusal and exits 2.  `nonexist`
prints one row per rule it runs.  `search` runs one task in this process,
refused past the fixed candidate budget unless `--long-run`; to use more cores,
run its `--shard I/T` slices as separate processes and merge their outputs.
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .covercoef import (
    _popcounts,
    all_cover_coefficients,
    cover_coefficient,
    two_adic_valuation,
)
from .errors import CapacityError, InternalInconsistencyError
from .gf2poly import classify_degree2
from .nonexistence import NOT_BENT, RULES
from .rotsym import (
    bits_to_mask,
    format_sanf,
    mask_to_bits,
    orbit_expand,
    parse_sanf,
    sanf_truth_table,
)
from .search import SearchTask, bent_verdict, exhaustive_search
from .walsh import walsh_spectrum


def _parse_shard(text):
    if text is None:
        return None
    try:
        index, total = map(int, text.split("/"))
    except ValueError:  # not two parts, or a part that is not an int
        raise ValueError("shard must look like INDEX/TOTAL, e.g. 0/4") from None
    return index, total


def _v2_text(v):
    return "inf" if v == math.inf else int(v)


def cmd_bent_check(args):
    n = args.nvars
    sanf = parse_sanf(args.sanf, n)
    bent, methods = bent_verdict(sanf)
    if args.format == "json":
        print(
            json.dumps(
                {"n": n, "sanf": format_sanf(sanf), "bent": bent, "methods": methods}
            )
        )
    else:
        word = "bent" if bent else "not bent"
        print(f"{format_sanf(sanf)} on n={n}: {word} [{', '.join(methods)}]")
    return 0 if bent else 1


def cmd_classify_deg2(args):
    found = classify_degree2(args.nvars)
    names = [format_sanf(s) for s in found]
    if args.format == "json":
        print(json.dumps({"n": args.nvars, "bent": names}))
    else:
        for name in names:
            print(name)
        print(f"{len(names)} bent degree-2 functions on n={args.nvars}")
    return 0


def cmd_spectrum(args):
    n = args.nvars
    sanf = parse_sanf(args.sanf, n)
    values = walsh_spectrum(sanf_truth_table(sanf)).values
    sep = ", " if args.format == "json" else " "
    _print_rows(args, sanf, _rows(values, n, lambda v: f"{sep}{v}"), sep)
    return 0


def _rows(values, n, text, lead=0):
    """A NUL-padded uint8 row per entry v of `values` (|v| <= 2^n): `lead`
    zero columns for the caller to fill, then the bytes of text(v).

    Each distinct value is formatted once, into a row of a small table; entry i
    takes the row of its value, ranked densely over [-2^n, 2^n] (no sort), and
    that gather is the one output array.  No list of 2^n Python ints is built:
    at n = 20, `tolist` and json.dumps of that list take about 38 and 141 ms, a
    whole `spectrum` call about 65.
    """
    shifted = values + (1 << n)
    present = np.zeros((2 << n) + 1, dtype=bool)
    present[shifted] = True
    rank = np.cumsum(present, dtype=np.int32) - 1
    texts = [text(v).encode() for v in (np.flatnonzero(present) - (1 << n)).tolist()]
    table = np.zeros((len(texts), lead + max(map(len, texts))), dtype=np.uint8)
    for row, t in zip(table, texts):
        row[lead : lead + len(t)] = list(t)
    return table[rank[shifted]]


def _print_rows(args, sanf, rows, sep):
    """Print `_rows` output whose rows each start with sep, joined, as text or
    as the "values" of a JSON object.  The padding and the first row's sep are
    NUL and dropped in one pass; every character is ASCII."""
    rows[0, : len(sep)] = 0
    text = rows[rows != 0].tobytes().decode()
    if args.format == "json":
        head = json.dumps({"n": args.nvars, "sanf": format_sanf(sanf)})[:-1]  # open object
        print(f'{head}, "values": [', text, "]}", sep="")
    else:
        print(text)


def cmd_hcoeff(args):
    n = args.nvars
    sanf = parse_sanf(args.sanf, n)
    monos = sorted(orbit_expand(sanf).monomials)
    if args.all_u:  # a row is sep + head + u1...un + tail(H, v2), by weight then value
        harr = all_cover_coefficients(monos, n)  # refuses n > 20 before any 2^n array
        if args.format == "json":
            head, sep = '{"u": "', ", "
            tail = lambda h, v: f'", "value": {h}, "v2": {json.dumps(v)}}}'
        else:
            head, sep, tail = "u=", "\n", lambda h, v: f" value={h} v2={v}"
        order = np.lexsort((np.arange(1 << n), _popcounts(n)))
        lead = (sep + head).encode()
        p = len(lead)  # columns: sep + head, the n bits, then the tail of each distinct H
        rows = _rows(harr[order], n, lambda h: tail(h, _v2_text(two_adic_valuation(h))), p + n)
        rows[:, :p] = list(lead)
        bits = np.unpackbits(  # bit j of each mask in column j: u1 first
            order.astype("<u4").view(np.uint8).reshape(-1, 4), axis=1, bitorder="little"
        )
        np.add(bits[:, :n], ord("0"), out=rows[:, p : p + n])
        _print_rows(args, sanf, rows, sep)
        return 0
    u = bits_to_mask(args.u, n)
    cv = cover_coefficient(monos, u)
    v2 = _v2_text(cv.valuation)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "n": n,
                    "sanf": format_sanf(sanf),
                    "u": mask_to_bits(u, n),
                    "value": cv.value,
                    "v2": v2,
                }
            )
        )
    else:
        print(f"value={cv.value} v2={v2}")
    return 0


def cmd_nonexist(args):
    n = args.nvars
    sanf = parse_sanf(args.sanf, n)
    selected = RULES if args.rule == "all" else [r for r in RULES if r[0] == args.rule]
    reports = [(name, fn(sanf)) for name, fn in selected]
    proved = any(rep.verdict == NOT_BENT for _, rep in reports)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "n": n,
                    "sanf": format_sanf(sanf),
                    "not_bent": proved,
                    "reports": {name: rep.as_dict() for name, rep in reports},
                }
            )
        )
    else:
        for name, rep in reports:
            print(f"{name:14} {rep.text()}")
    return 0 if proved else 1


def _stats_text(stats):
    """One line of a record's `stats`: counts, then stage seconds to the ms."""
    return " ".join(f"{k}={v:.3f}" if k.endswith("_s") else f"{k}={v}" for k, v in stats.items())


def cmd_search(args):
    task = SearchTask(args.nvars, args.degree, _parse_shard(args.shard), args.long_run)
    record = exhaustive_search(task, args.checkpoint).as_dict()
    if args.out:  # write-then-rename: a killed run never leaves a torn file
        tmp = f"{args.out}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, args.out)
    if args.format == "json":
        print(json.dumps(record))
    else:
        for name in record["bent"]:
            print(name)
        print("stats:", _stats_text(record["stats"]))
        print(f"{len(record['bent'])} bent / {record['candidates_tested']} tested")
    return 0


def _add_common(sp, with_sanf=True):
    sp.add_argument("-n", "--nvars", type=int, required=True, help="number of variables")
    if with_sanf:
        sp.add_argument("sanf", help="short ANF, e.g. x1x2x3+x1x2x4")
    sp.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


@functools.cache
def build_parser():
    """The argument parser, built once per process (a build takes about
    1.2 ms on a 2-core x86 host).

    `parse_args` keeps no state between calls: each call fills a fresh
    namespace, so `main` can reuse the one parser.
    """
    p = argparse.ArgumentParser(
        prog="rotbent",
        description="Bentness analysis of homogeneous rotation-symmetric "
        "Boolean functions",
    )
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("bent-check", help="test one SANF for bentness")
    _add_common(sp)
    sp.set_defaults(func=cmd_bent_check)

    sp = sub.add_parser(
        "classify-deg2", help="list all bent degree-2 rotation-symmetric functions"
    )
    _add_common(sp, with_sanf=False)
    sp.set_defaults(func=cmd_classify_deg2)

    sp = sub.add_parser("spectrum", help="print the Walsh spectrum")
    _add_common(sp)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("hcoeff", help="cover coefficients and their valuations")
    _add_common(sp)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--u", help="mask as a 0/1 string, position 1 first")
    group.add_argument(
        "--all-u", action="store_true", help="every mask, ordered by weight then value"
    )
    sp.set_defaults(func=cmd_hcoeff)

    sp = sub.add_parser("nonexist", help="run the structural nonexistence rules")
    _add_common(sp)
    sp.add_argument(
        "--rule",
        choices=("all",) + tuple(name for name, _ in RULES),
        default="all",
        help="run a single rule instead of all of them",
    )
    sp.set_defaults(func=cmd_nonexist)

    sp = sub.add_parser("search", help="exhaustive search over a degree layer")
    _add_common(sp, with_sanf=False)
    sp.add_argument("-d", "--degree", type=int, required=True, help="homogeneous degree")
    sp.add_argument("--shard", help="INDEX/TOTAL slice of the candidate space")
    sp.add_argument(
        "--long-run",
        action="store_true",
        help="accept candidate counts over the budget in one call",
    )
    sp.add_argument("--checkpoint", help="append JSON-lines progress records here")
    sp.add_argument("--out", help="write the final result as JSON here")
    sp.set_defaults(func=cmd_search)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CapacityError, OSError) as exc:  # OSError: --out, --checkpoint
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

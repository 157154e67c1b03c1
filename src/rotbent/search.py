"""Exhaustive search over homogeneous rotation-symmetric functions.

A degree-d candidate space on n variables is the set of nonempty subsets of
the weight-d orbit representatives, walked in Gray-code order so that each
step toggles a single orbit in a packed-integer truth table.  Each step keeps
only the table weight; the full spectral test runs on the rare candidates
whose weight matches a bent function's (W(0) = 2^n - 2 * weight must be
+-2^(n/2)), and every hit is re-derived and re-tested independently before it
is released.  Odd n has no bent functions, so its walk only counts.

Large spaces must be split into shards (contiguous Gray-index ranges that
partition the space) or explicitly marked long-running; a budget guard
refuses oversized single calls otherwise.  Checkpoint records are JSON lines:
a result's `as_dict()` plus the Gray range it covers, a parameter hash and
the elapsed seconds.
"""

import hashlib
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .boolfn import TruthTable
from .covercoef import CAPACITY, bent_by_valuation
from .errors import CapacityError, InternalInconsistencyError
from .gf2poly import is_bent_degree2_rots, is_bent_quadratic
from .nonexistence import NOT_BENT, all_checks
from .rotsym import (
    Sanf,
    enumerate_orbit_reps,
    format_sanf,
    orbit_count,
    orbit_expand,
    sanf_truth_table,
)
from .walsh import is_bent, is_bent_early_abort

DEFAULT_BUDGET = 1 << 24
_CHUNK = 1 << 20


@dataclass(frozen=True)
class SearchTask:
    n: int
    d: int
    shard: object = None  # (index, total) or None for the whole space
    long_run: bool = False

    def __post_init__(self):
        if self.shard is not None:
            i, t = self.shard
            if not (t >= 1 and 0 <= i < t):
                raise ValueError("shard must satisfy 0 <= index < total")


@dataclass(frozen=True)
class SearchResult:
    task: SearchTask
    candidates: int
    bent: tuple  # Sanf instances, ordered by subset index

    def as_dict(self):
        return {
            "n": self.task.n,
            "d": self.task.d,
            "shard": list(self.task.shard) if self.task.shard else None,
            "candidates_tested": self.candidates,
            "bent": [format_sanf(s) for s in self.bent],
        }


@dataclass(frozen=True)
class CrosscheckReport:
    n: int
    d: int
    candidates: int
    bent_count: int
    valuation_checked: int
    degree2_checked: int
    rules_fired: int


def _pack_table(bits):
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _unpack_table(value, n):
    raw = value.to_bytes(-(-(1 << n) // 8), "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[: 1 << n]


def _subset_sanf(n, reps, subset):
    chosen = tuple(r for i, r in enumerate(reps) if (subset >> i) & 1)
    return Sanf(n, chosen)


def _shard_range(task, r):
    """Gray indices [lo, hi) of the task's shard of the 2^r - 1 candidates."""
    total = (1 << r) - 1
    if task.shard is None:
        return 1, total + 1
    i, t = task.shard
    return 1 + (total * i) // t, 1 + (total * (i + 1)) // t


def _params_hash(task, budget):
    text = f"{task.n}|{task.d}|{task.shard}|{budget}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def append_checkpoint(path, result, budget, started, span=None):
    """Append one JSON-lines record of `result` to the checkpoint file.

    `span` is the Gray range [lo, hi) the record covers, by default the whole
    of the task's shard; `started` is the perf_counter reading of the run start.
    """
    if span is None:
        span = _shard_range(result.task, orbit_count(result.task.n, result.task.d))
    record = result.as_dict()
    record.update(
        range=list(span),
        params_hash=_params_hash(result.task, budget),
        elapsed_s=round(time.perf_counter() - started, 3),
    )
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def _confirm_bent(n, reps, subset):
    """Independent reconstruction of a hit; guards the packed-walk bookkeeping."""
    sanf = _subset_sanf(n, reps, subset)
    if not is_bent(sanf_truth_table(sanf)):
        raise InternalInconsistencyError(
            f"search hit fails independent spectral test: {format_sanf(sanf)}"
        )
    return sanf


def _walk_early_abort(n, tables, lo, hi, targets):
    """Gray walk over subset indices [lo, hi); yields hit subsets."""
    hits = []
    subset = lo ^ (lo >> 1)
    table = 0
    s = subset
    while s:
        low = s & -s
        table ^= tables[low.bit_length() - 1]
        s ^= low
    j = lo
    while True:
        if table.bit_count() in targets:
            if is_bent(TruthTable(n, _unpack_table(table, n))):
                hits.append(subset)
        j += 1
        if j >= hi:
            break
        flip = (j & -j).bit_length() - 1
        subset ^= 1 << flip
        table ^= tables[flip]
    return hits


def exhaustive_search(task, budget=DEFAULT_BUDGET, checkpoint_path=None):
    """Run one search task; returns a SearchResult with re-verified hits.

    Raises CapacityError when the candidate count exceeds the budget and the
    task is not marked long-running; the message names a sufficient shard
    count.  With a checkpoint path, appends one JSON line per finished chunk.
    """
    n = task.n
    reps = enumerate_orbit_reps(n, task.d)
    lo, hi = _shard_range(task, len(reps))
    count = hi - lo
    if count > budget and not task.long_run:
        shards = math.ceil(count / budget)
        raise CapacityError(
            f"{count} candidates exceed the budget of {budget}: "
            f"split into at least {shards} shards or mark the task long-running"
        )

    tables = [_pack_table(sanf_truth_table(Sanf(n, (rep,))).bits) for rep in reps]
    if n % 2 == 0:
        half = 1 << (n // 2)
        targets = frozenset({((1 << n) - half) // 2, ((1 << n) + half) // 2})
    else:
        targets = frozenset()

    hits = []
    started = time.perf_counter()
    for chunk_lo in range(lo, hi, _CHUNK):
        chunk_hi = min(chunk_lo + _CHUNK, hi)
        hits.extend(_walk_early_abort(n, tables, chunk_lo, chunk_hi, targets))
        if checkpoint_path is not None:
            so_far = tuple(_subset_sanf(n, reps, s) for s in sorted(hits))
            append_checkpoint(
                checkpoint_path,
                SearchResult(task, chunk_hi - lo, so_far),
                budget,
                started,
                (chunk_lo, chunk_hi),
            )

    bent = tuple(_confirm_bent(n, reps, s) for s in sorted(hits))
    return SearchResult(task, count, bent)


def search_crosscheck(n, d):
    """Sweep a small space through every verdict route and compare them all.

    Spectral, early-abort, valuation (within capacity), the degree-2 GCD
    routes, and the structural rules must all agree; any NOT_BENT on a
    spectrally bent function raises.  Spaces above 2^14 candidates are
    refused, this is a consistency probe, not a search.
    """
    reps = enumerate_orbit_reps(n, d)
    total = (1 << len(reps)) - 1
    if total > 1 << 14:
        raise CapacityError(f"crosscheck limited to 2^14 candidates, got {total}")
    bent_count = val_checked = deg2_checked = fired = 0
    for subset in range(1, total + 1):
        sanf = _subset_sanf(n, reps, subset)
        tt = sanf_truth_table(sanf)
        bw = is_bent(tt)
        if is_bent_early_abort(tt) != bw:
            raise InternalInconsistencyError(f"early-abort mismatch: {format_sanf(sanf)}")
        bent_count += bw
        anf = orbit_expand(sanf)
        if n % 2 == 0 and len(anf.monomials) <= CAPACITY:
            if bent_by_valuation(anf) != bw:
                raise InternalInconsistencyError(
                    f"valuation mismatch: {format_sanf(sanf)}"
                )
            val_checked += 1
        if d == 2 and n % 2 == 0:
            if is_bent_degree2_rots(sanf) != bw or is_bent_quadratic(anf) != bw:
                raise InternalInconsistencyError(
                    f"degree-2 route mismatch: {format_sanf(sanf)}"
                )
            deg2_checked += 1
        for _, report in all_checks(sanf):
            if report.verdict == NOT_BENT:
                fired += 1
                if bw:
                    raise InternalInconsistencyError(
                        f"unsound rule {report.rule} on bent {format_sanf(sanf)}"
                    )
    return CrosscheckReport(n, d, total, bent_count, val_checked, deg2_checked, fired)

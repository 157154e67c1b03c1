"""Exhaustive search over homogeneous rotation-symmetric functions.

A degree-d candidate space on n variables is the set of nonempty subsets of
the weight-d orbit representatives, walked in Gray-code order in numpy
blocks of at least 2^12 candidates, wider while a block's tables fit in 2^16
words.  A rotation-symmetric function is constant on input rotation orbits,
so a candidate's table is one bit per orbit of size n and one per input of a
smaller orbit (slot bits).  A block is skipped when its weights mod n, set
by the short orbits alone, reach no bent weight (every block at odd n, at
n = 10 d = 3 and 5 and at n = 14 d = 3); a spot check per chunk weighs one
skipped table in full.  On the rest, the W(0) weight filter, then a sieve of
exact W(c) = 4 odd[c] . bits - 2 weight at a few inputs c (odd[c] counting each
slot's inputs y with <c, y> odd; one c at a time, each candidate dropped at
its first failing one), then the full spectral test pick the hits; that test
runs on the table rebuilt from the SANF, after checking it against the slot bits.

Spaces over `BUDGET` (2^24) candidates must be split into shards
(contiguous Gray-index ranges that partition the space) or explicitly
marked long-running; the guard refuses oversized single calls otherwise.
Past the full-table cap (n = 22) every search is refused before enumerating.
A `SearchResult` is the one run record: the Gray range [lo, hi) covered so
far, with the counts, hits and elapsed seconds of exactly those candidates.
Checkpoint lines, `--out` and `--format json` all write its `as_dict()`.
`bent_verdict` compares every bentness route on one SANF.
"""

import contextlib
import functools
import hashlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .boolfn import _check_table_n
from .covercoef import bent_by_valuation
from .errors import CapacityError, InternalInconsistencyError
from .gf2poly import is_bent_degree2_rots, is_bent_quadratic
from .nonexistence import NOT_BENT, all_checks
from .rotsym import (
    Sanf,
    _rotations,
    enumerate_orbit_reps,
    format_sanf,
    is_rotation_symmetric,
    orbit_count,
    orbit_expand,
    sanf_truth_table,
)
from .walsh import is_bent

BUDGET = 1 << 24  # largest candidate count of a call not marked long-running
_CHUNK = 1 << 20
_BLOCK_BITS = 12  # a numpy block walks at least 2^12 Gray indices,
_BLOCK_WORDS = 1 << 16  # and more while its `low` columns stay within 2^16 words
_SIEVE = 8  # input orbits at which W(c) of every W(0) survivor is checked
# a call's stats, each starting at zero: counts, then stage seconds
_STATS = dict.fromkeys(("candidates", "residue_skipped", "weight_survivors", "sieve_survivors"), 0)
_STATS |= dict.fromkeys(("spectral_tests", "hits"), 0)
_STATS |= dict.fromkeys(("tables_s", "walk_s", "sieve_s", "confirm_s"), 0.0)


@dataclass(frozen=True)
class SearchTask:
    n: int
    d: int
    shard: object = None  # (index, total) or None for the whole space
    long_run: bool = False

    def __post_init__(self):
        try:
            i, t = (0, 1) if self.shard is None else self.shard
        except (TypeError, ValueError):  # not iterable, or not two items
            raise ValueError(f"shard must be (index, total), got {self.shard!r}") from None
        for name, value in {"n": self.n, "d": self.d, "shard index": i, "shard total": t}.items():
            if not isinstance(value, int) or isinstance(value, bool):  # bool is an int subclass
                raise ValueError(f"{name} must be an int, got {value!r}")
        if not (t >= 1 and 0 <= i < t):
            raise ValueError("shard must satisfy 0 <= index < total")
        if self.shard is not None:  # a list would be unhashable and hash to another params_hash
            object.__setattr__(self, "shard", (i, t))


@dataclass(frozen=True)
class SearchResult:
    task: SearchTask
    range: tuple  # Gray indices [lo, hi) covered so far
    bent: tuple  # Sanf instances, ordered by subset index
    stats: dict = field(default_factory=dict, compare=False)  # see exhaustive_search
    elapsed_s: float = field(default=0.0, compare=False)

    @property
    def candidates(self):
        return self.range[1] - self.range[0]

    def as_dict(self):
        """The run record; every JSON output of a search is this dict."""
        return {
            "n": self.task.n,
            "d": self.task.d,
            "shard": list(self.task.shard) if self.task.shard else None,
            "range": list(self.range),
            "candidates_tested": self.candidates,
            "bent": [format_sanf(s) for s in self.bent],
            "stats": dict(self.stats),
            "params_hash": _params_hash(self.task),
            "elapsed_s": round(self.elapsed_s, 3),
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


def _subset_sanf(n, reps, subset):
    chosen = tuple(r for i, r in enumerate(reps) if (subset >> i) & 1)
    return Sanf(n, chosen)


def _count_text(c):
    """c in decimal, or as ~2^k past Python's int-to-str digit limit."""
    try:
        return str(c)
    except ValueError:
        return f"~2^{round(math.log2(c))}"


def _shard_range(task, r):
    """Gray indices [lo, hi) of the task's shard of the 2^r - 1 candidates."""
    total = (1 << r) - 1
    if task.shard is None:
        return 1, total + 1
    i, t = task.shard
    return 1 + (total * i) // t, 1 + (total * (i + 1)) // t


def _params_hash(task):
    return hashlib.sha256(f"{task.n}|{task.d}|{task.shard}".encode()).hexdigest()[:16]


def _append_checkpoint(path, result):
    """Append `result.as_dict()` to the checkpoint file as one JSON line."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(result.as_dict(), sort_keys=True) + "\n")


def _confirm_bent(orb, subset, bits):
    """The Sanf of a candidate if bent, else None; the table rebuilt from the SANF
    must be rotation-symmetric and equal slot `bits` at `orb.slots`."""
    sanf = _subset_sanf(orb.n, orb.reps, subset)
    tt = sanf_truth_table(sanf)
    if not (np.array_equal(tt.bits[orb.slots], bits) and is_rotation_symmetric(tt)):
        raise InternalInconsistencyError(
            f"orbit bits disagree with the table of {format_sanf(sanf)}"
        )
    return sanf if is_bent(tt) else None


class _OrbitTables:
    """A layer's orbit-sized tables: single-orbit tables on slot bits, sieve planes.

    `slots` holds each aperiodic orbit's least input (standing for its n inputs),
    zero pads to word `wf` (for none), then each periodic input (for itself), so
    a weight is n * popcount(words < wf) + popcount(words >= wf).  Row r of
    `tables` packs representative r at each slot x into uint64 words: the parity
    of the distinct rotations m of r with m & x == m.  Column j of `low` (words on
    axis 0) XORs the first k rows that the Gray code j ^ (j >> 1) picks.  Slot i
    sums (-1)^<c,y> over its inputs y to cover_i - 2 odd[c, i], odd[c, i] (0..n)
    counting those with <c, y> odd; the slots cover each input once and c != 0,
    so the sums add to 0 and W(c) = 4 odd[c] . bits - 2 weight.  `planes[c, b]`
    packs bit b of odd[c] in the word layout of `tables`.  Both are built one
    rotation at a time on 2-D (rows x slots) arrays.

    A weight mod n is the sum of the short orbits' sizes over those its table is
    1 on.  Within a block only the orbits on which one of `tables[:k]` is 1 vary;
    `residues[r]` says whether r mod n is a sum of a subset of their sizes, and
    `fixed` packs the periodic slots of the others (the words from wf on).  So
    every weight of a block whose base table's periodic words have popcount(words
    & fixed) = c mod n is c plus a residue, and `reach[c]` holds the bent weights
    that are, mod n (none at odd n).  At n = 10 d = 4 the residues are {0} and
    half the blocks reach none; at n = 12 and n = 16 d = 3 every block reaches one.

    Blocks are 2^k columns: as many as keep `low` within `_BLOCK_WORDS` words, at
    least 2^_BLOCK_BITS and at most 2^len(reps) (k = 14 at n = 10 d = 4, 13 at
    n = 12 d = 3, 12 on every layer of more than 16 words, such as n >= 14).
    """

    def __init__(self, n, reps):
        x = np.arange(1 << n, dtype=np.uint32)  # n <= 30
        least = functools.reduce(np.minimum, _rotations(x, n))
        sizes = np.bincount(least)  # an orbit's size at its least input
        periodic = np.flatnonzero((sizes < n)[least])  # short orbits' inputs, ascending
        members = np.flatnonzero(least == x)
        sizes, least = sizes[members], least[periodic]  # of each orbit; of each periodic input
        del x  # a 2^n-entry temporary, freed before the tables are built
        self.bent = 1 << (n // 2)  # every |W(c)| if bent
        half = 1 << (n - 1)  # W(0) = 2^n - 2 weight: the bent weights, none at odd n
        self.bent_weights = () if n % 2 else (half - self.bent // 2, half + self.bent // 2)
        self.coords = members[np.linspace(1, len(members) - 1, _SIEVE).astype(np.int64)]
        full, short, span = members[sizes == n], members[sizes < n], sizes[sizes < n]
        orbit, pad = np.searchsorted(short, least), -len(full) % 64  # index into short
        slots = self.slots = np.concatenate((full, np.zeros(pad, full.dtype), periodic))
        cover = np.repeat([n, 0, 1], [len(full), pad, len(periodic)])  # inputs a slot stands for
        self.n, self.g, self.wf, self.reps = n, len(slots), (len(full) + pad) // 64, reps
        odd = np.zeros((_SIEVE, -(-self.g // 64) * 64), dtype=np.uint8)  # whole words
        for l, c in enumerate(_rotations(self.coords, n)):  # <rot(c), x> = <c, rot^-1(x)>
            odd[:, : self.g] += np.bitwise_count(c[:, None] & slots) & 1 & (l < cover)
        odd = odd[:, None] >> np.arange(n.bit_length(), dtype=np.uint8)[:, None] & 1
        self.planes = np.packbits(odd, -1, bitorder="little").view("<u8")
        del odd  # the planes hold it; freed before the tables are built
        reps = np.array(reps, dtype=np.int64)
        count = np.zeros((len(reps), -(-self.g // 64) * 64), dtype=np.uint8)  # whole words
        mult = np.zeros(len(reps), dtype=np.uint8)
        for m in _rotations(reps, n):  # each distinct rotation comes up mult times
            count[:, : self.g] += (m[:, None] & slots) == m[:, None]
            mult += m == reps
        bits = count // mult[:, None] & 1
        del count
        self.tables = np.packbits(bits, -1, bitorder="little").view("<u8")
        words = _BLOCK_WORDS // self.tables.shape[1]
        self.k = min(len(reps), max(_BLOCK_BITS, words.bit_length() - 1))
        p0 = len(full) + pad  # the first periodic slot
        varying = np.zeros(len(short), dtype=bool)
        varying[orbit[bits[: self.k, p0 : self.g].any(axis=0)]] = True
        del bits
        sums = {0}  # residues mod n of the sums of subsets of the varying orbits' sizes
        for size in span[varying].tolist():
            sums |= {(r + size) % n for r in sums}
        self.residues = np.isin(np.arange(n), list(sums))
        self.reach = tuple(
            tuple(w for w in self.bent_weights if (w - c) % n in sums) for c in range(n)
        )
        fixed = np.zeros(64 * self.tables.shape[1] - p0, dtype=bool)  # the periodic words
        fixed[: self.g - p0] = ~varying[orbit]
        self.fixed = np.packbits(fixed, bitorder="little").view("<u8")
        low = self.low = np.zeros((self.tables.shape[1], 1 << self.k), dtype=np.uint64)
        for i in range(self.k):  # reflected Gray code: the second half mirrors the first
            low[:, 1 << i : 2 << i] = low[:, (1 << i) - 1 :: -1] ^ self.tables[i, :, None]
        held = (slots, self.coords, self.planes, self.tables, low)
        for a in held + (self.residues, self.fixed):
            a.setflags(write=False)  # shared by every search of the layer

    def weight(self, rows):
        """Table weight of each packed table (words on axis 0), adding one popcount
        row at a time: uint16 while 2^n fits (n <= 15), else int32 (2^22 fits).

        On one 15,900-column block at n = 10 d = 4 (3 words) it takes about 31 us
        of the W(0) filter's 56, against 45 for an int32 `add.reduce` over axis 0."""
        pops = np.bitwise_count(rows)
        weight = np.zeros(rows.shape[1:], np.uint16 if self.n <= 15 else np.int32)
        for p in pops[: self.wf]:
            weight += p
        weight *= self.n
        for p in pops[self.wf :]:
            weight += p
        return weight

    def slot_bits(self, rows):
        """0/1 slot bits of packed tables (words on axis 0), one table a row."""
        return np.unpackbits(rows.T.copy().view(np.uint8), -1, self.g, "little")

    def sieve_pass(self, rows, weights):
        """Whether each packed table's (words on axis 0) |W(c)| is 2^(n/2) at every
        c in `coords`, tested one c at a time on the tables still alive.

        W(c) = 4 sum_b 2^b popcount(row & planes[c, b]) - 2 weight(row), exact in
        int32 since 4 n g < 2^31 at n <= 22; `weights` are the tables' weights, as
        the W(0) filter computed them.  On the 663 W(0) survivors of one n = 10
        d = 4 block the pass takes about 31 us."""
        twice = 2 * weights.astype(np.int32)
        scale = np.left_shift(4, np.arange(self.planes.shape[1], dtype=np.int32))
        passed = np.zeros(rows.shape[1], dtype=bool)
        step = max(1, (1 << 17) // self.planes[0].size)  # ANDs of at most 1 MiB at once
        for i in range(0, len(passed), step):
            alive = np.arange(i, min(i + step, len(passed)))
            for planes in self.planes:
                pops = np.bitwise_count(planes[:, :, None] & rows.take(alive, axis=1))
                w = scale @ np.add.reduce(pops, axis=1, dtype=np.int32) - twice[alive]
                alive = alive[np.abs(w) == self.bent]
                if not alive.size:  # most tables fail at the first c
                    break
            passed[alive] = True
        return passed


_layer = None  # (n, d, _OrbitTables) of the layer searched last; a warm call is this lookup


def _layer_tables(n, d):
    """The `_OrbitTables` of layer (n, d), built on a miss; the held layer is
    dropped before the new one's representatives are enumerated."""
    global _layer
    if _layer is None or _layer[:2] != (n, d):
        _layer = None
        _layer = (n, d, _OrbitTables(n, tuple(enumerate_orbit_reps(n, d))))
    return _layer[2]


def _check_skip(orb, row, col, c):
    """Weigh column `col` of a skipped block (base table `row`) from the orbit
    tables: its weight must be c plus a residue in `residues`, and no bent weight,
    mod n; else the residue data are wrong and the block may hide a survivor.
    The weight is summed here, not by `weight`: 3 us against 7 on one column at
    n = 10 d = 4."""
    n, pops = orb.n, np.bitwise_count(orb.low[:, col] ^ row)
    w = n * int(pops[: orb.wf].sum()) + int(pops[orb.wf :].sum())
    if not orb.residues[(w - c) % n] or any((w - b) % n == 0 for b in orb.bent_weights):
        raise InternalInconsistencyError(
            f"a block skipped at residue {c} mod {n} holds a table of weight {w}"
        )


def _walk(orb, lo, hi, stats):
    """Gray walk over subset indices [lo, hi) in blocks of 2^orb.k; returns (subset, Sanf)s.

    The Gray code is linear over XOR, so index j0 + off has j0's table XOR
    column off of `orb.low`.  A block whose base residue c reaches no bent
    weight (`orb.reach[c]` is empty) is counted in `residue_skipped` and not
    walked; the first such block of a call (one chunk) goes to `_check_skip`.
    On the others the W(0) filter keeps the tables of a weight in `orb.reach[c]`;
    the sieve reads their packed words and weights; only the rows
    `_confirm_bent` checks are unpacked to slot bits, and it also re-tests the
    first sieve negative.
    Stage costs at n = 10 d = 4 (2-core x86 host, best of 5 timed loops): the
    residue of a block about 7 us (its base table 6, residue 1), and a skipped
    block's spot check 3; the W(0) filter of a 16,384-column block about 54 us
    (XOR 16, weight 29, comparison 7-9), the sieve of its 663 survivors 31 us,
    and one re-test 106-111 us (SANF 5, expansion 17, table 37, checks 6,
    spectrum 40), a fixed cost per chunk.  Counts and seconds are added into
    `stats`.
    """
    n, k, clock = orb.n, orb.k, time.perf_counter
    hits, left, spot = [], 1, True  # sieve negatives still to re-test; a skip to spot-check
    for j0 in range(lo >> k << k, hi, 1 << k):
        t0, start, base = clock(), max(lo - j0, 0), j0 ^ (j0 >> 1)
        picked = orb.tables[[i for i in range(base.bit_length()) if base >> i & 1]]
        row = np.bitwise_xor.reduce(picked)
        periodic = zip(row[orb.wf :].tolist(), orb.fixed.tolist())  # Python ints: 1 us, not 3
        c = sum((a & b).bit_count() for a, b in periodic) % n
        reach = orb.reach[c]
        if not reach:
            end = min(hi - j0, 1 << k)
            if spot and end > start:
                _check_skip(orb, row, end - 1, c)
                spot = False
            stats["residue_skipped"] += end - start
            stats["walk_s"] += clock() - t0
            continue
        rows = orb.low[:, start : hi - j0] ^ row[:, None]
        weights = orb.weight(rows)
        keep = np.flatnonzero(functools.reduce(np.logical_or, [weights == w for w in reach]))
        t1 = clock()
        stats["walk_s"] += t1 - t0
        if not keep.size:  # nothing to sieve or re-test
            continue
        rows = rows.take(keep, axis=1)  # C order: a fancy index on axis 1 gives F order
        passed = orb.sieve_pass(rows, weights[keep])
        tested, retest = np.flatnonzero(passed), np.flatnonzero(~passed)[:left]
        left -= retest.size
        t2, checked = clock(), np.concatenate((tested, retest))
        for i, bits in zip(checked.tolist(), orb.slot_bits(rows[:, checked])):
            off = int(keep[i]) + start
            subset = base ^ off ^ (off >> 1)
            sanf = _confirm_bent(orb, subset, bits)
            if sanf and not passed[i]:
                raise InternalInconsistencyError(f"sieve rejected bent {format_sanf(sanf)}")
            hits += [(subset, sanf)] if sanf else []
        stats["weight_survivors"] += keep.size
        stats["sieve_survivors"] += tested.size
        stats["spectral_tests"] += checked.size
        stats["sieve_s"] += t2 - t1
        stats["confirm_s"] += clock() - t2
    return hits


def exhaustive_search(task, checkpoint_path=None):
    """Run one search task; returns a SearchResult with SANF-confirmed hits.

    Raises CapacityError before enumerating when n exceeds the full-table cap
    (22), or else when the candidate count exceeds `BUDGET` and the task is not
    long-running (the message names a sufficient shard count).  After each chunk
    of `_CHUNK` indices it builds the record of [lo, chunk_hi), the range done so
    far, and appends it to the checkpoint path if one is given (an empty shard
    writes one record of [lo, lo)); the last record is the result.
    `stats` counts candidates, those in residue-skipped blocks, W(0) and sieve
    survivors, full spectral tests (one re-tested sieve negative per chunk
    included) and hits, and times stages (a skipped block's in `walk_s`);
    `tables_s` covers the whole per-layer setup, representatives included.
    A layer's representatives and orbit tables are built once per process and
    kept until another layer is searched (about 27 MiB at n = 20 d = 3, 98 MiB
    at n = 22 d = 3), so a warm call's `tables_s` is just the lookup.  Only
    repeated searches of one layer in one process gain: a CLI run makes one call.
    """
    n, started = task.n, time.perf_counter()
    lo, hi = _shard_range(task, orbit_count(n, task.d))
    _check_table_n(n)  # before the budget: no shard count gets a search past the cap
    count = hi - lo
    if count > BUDGET and not task.long_run:
        shards = -(-count // BUDGET)
        raise CapacityError(
            f"{_count_text(count)} candidates exceed the budget of {BUDGET}: "
            f"split into at least {_count_text(shards)} shards or mark the task long-running"
        )
    stats = dict(_STATS)
    orb = _layer_tables(n, task.d)
    stats["tables_s"] = time.perf_counter() - started
    hits = []
    for chunk_lo in range(lo, hi, _CHUNK) or [lo]:  # an empty shard: one record of [lo, lo)
        chunk_hi = min(chunk_lo + _CHUNK, hi)
        hits.extend(_walk(orb, chunk_lo, chunk_hi, stats))
        stats["candidates"] = chunk_hi - lo
        stats["hits"] = len(hits)
        bent = tuple(sanf for _, sanf in sorted(hits))
        elapsed = time.perf_counter() - started
        result = SearchResult(task, (lo, chunk_hi), bent, dict(stats), elapsed)
        if checkpoint_path is not None:
            _append_checkpoint(checkpoint_path, result)
    return result


def bent_verdict(sanf):
    """(bent, methods) of a SANF by every route that takes it: walsh (n <= 22),
    valuation (even n <= 20), and gcd and rank at any n for homogeneous degree 2.

    A route that raises ValueError or CapacityError is left out.  Raises
    CapacityError when none is left, InternalInconsistencyError when they disagree.
    """
    anf = orbit_expand(sanf)
    routes = {"walsh": lambda: is_bent(sanf_truth_table(sanf))}
    routes["valuation"] = lambda: bent_by_valuation(anf)
    if sanf.homogeneous_degree == 2:
        routes.update(gcd=lambda: is_bent_degree2_rots(sanf), rank=lambda: is_bent_quadratic(anf))
    verdicts = {}
    for method, route in routes.items():
        with contextlib.suppress(ValueError, CapacityError):
            verdicts[method] = route()
    if not verdicts:
        raise CapacityError(f"no bentness route is feasible at n={sanf.n}")
    if len(set(verdicts.values())) > 1:
        pairs = ", ".join(f"{m}={v}" for m, v in verdicts.items())
        raise InternalInconsistencyError(f"methods disagree on {format_sanf(sanf)}: {pairs}")
    return next(iter(verdicts.values())), list(verdicts)


def search_crosscheck(n, d):
    """Sweep a small space through `bent_verdict` and the structural rules.

    The routes must agree, and a rule's NOT_BENT on a bent function raises.
    Spaces above 2^14 candidates are refused before enumerating: this is a
    consistency probe, not a search.  Past n = 22 only degree 2 is decided
    (by gcd and rank); any other layer raises `bent_verdict`'s CapacityError.
    """
    total = (1 << orbit_count(n, d)) - 1
    if total > 1 << 14:
        raise CapacityError(f"crosscheck limited to 2^14 candidates, got {_count_text(total)}")
    reps = enumerate_orbit_reps(n, d)
    bent_count = val_checked = deg2_checked = fired = 0
    for subset in range(1, total + 1):
        sanf = _subset_sanf(n, reps, subset)
        bent, methods = bent_verdict(sanf)
        bent_count += bent
        val_checked += "valuation" in methods
        deg2_checked += "gcd" in methods
        for _, report in all_checks(sanf):
            if report.verdict == NOT_BENT:
                fired += 1
                if bent:
                    raise InternalInconsistencyError(
                        f"unsound rule {report.rule} on bent {format_sanf(sanf)}"
                    )
    return CrosscheckReport(n, d, total, bent_count, val_checked, deg2_checked, fired)

"""The two benchmark workloads.

Each workload builds its inputs from a seed through rotbent's public API
(`setup`), runs one round of timed calls (`run_round`) and checks the
outputs of a round against `reference` (`check`).  A round is always the
same work for the same seed, so per-round counts repeat exactly.
"""

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass, field

import reference as ref
from tracer import RULE_NAMES

# Span names each workload must fire at least once when traced.
_CORE = (
    "walsh.is_bent",
    "walsh.walsh_spectrum",
    "rotsym.sanf_truth_table",
    "rotsym.orbit_expand",
    "boolfn.truth_table_from_anf",
)
_RULES = tuple(f"nonexistence.rule.{r}" for r in RULE_NAMES)
_VALUATION = (
    "covercoef.bent_by_valuation",
    "covercoef.all_cover_coefficients",
    "covercoef.cover_coefficient",
    "nonexistence.verify_witness",
)


@dataclass
class Round:
    """What one round did: work items, per-call latencies, failures, outputs."""

    items: int = 0
    latencies: list = field(default_factory=list)
    failed: int = 0
    output_bytes: int = 0
    outputs: list = field(default_factory=list)


def _parse_sanf_text(text, n):
    """SANF text 'x1x2x3+x1x4x7' -> monomial masks, without rotbent."""
    masks = []
    for part in text.split("+"):
        mask = 0
        for token in part.split("x")[1:]:
            mask |= 1 << (int(token) - 1)
        masks.append(mask)
    return ref.expand(masks, n)


def _bits_to_mask(bits):
    return sum(1 << j for j, ch in enumerate(bits) if ch == "1")


class _Spectra:
    """Reference spectra, computed once per function and checked by Parseval."""

    def __init__(self, problems):
        self.problems = problems
        self._cache = {}

    def get(self, monomials, n):
        key = (n, tuple(monomials))
        if key not in self._cache:
            table = ref.truth_table(monomials, n)
            spec = ref.walsh(table)
            if not ref.parseval_holds(spec, n):
                self.problems.append(f"reference spectrum fails Parseval at n={n}")
            self._cache[key] = spec
        return self._cache[key]


def _check_witness(problems, spectra, monomials, n, u0, claimed, where):
    h = ref.cover_from_spectrum(spectra.get(monomials, n), n, u0)
    if not ref.violates_valuation_bound(h, u0, n):
        problems.append(f"{where}: witness H(u0)={h} does not violate the valuation bound")
    elif ref.v2(h) != claimed:
        problems.append(f"{where}: witness v2={ref.v2(h)} but {claimed} claimed")


class Search:
    """Fixed shards of one degree-d layer through `exhaustive_search`.

    The layer is split into `total` shards with `SearchTask(n, d,
    shard=(i, total))` in the default mode, and `timed` evenly spaced
    shards, starting at `offset`, are searched each round.  A whole layer is
    one 8-14 s call, too long to repeat within a run; shards of 10-150 ms
    repeat forty times or more, so each call's fastest time can be found
    (see README).  The offset is the one whose shards hold the layer's share
    of weight-filter survivors: 4,931 of 78,116 at n=10 d=4 with 16 of 256
    shards (a sixteenth is 4,882).
    """

    item = "candidate"
    expected = _CORE + ("search.exhaustive_search", "rotsym.enumerate_orbit_reps", "rotsym.Sanf")
    sample_size = 256

    def __init__(self, n, d, total, timed, offset):
        self.n, self.d, self.total = n, d, total
        self.shards = tuple(range(offset, total, total // timed))

    def setup(self, rb, seed):
        return {
            "reps": rb.enumerate_orbit_reps(self.n, self.d),
            "tasks": [rb.SearchTask(self.n, self.d, shard=(i, self.total)) for i in self.shards],
        }

    def run_round(self, rb, inputs):
        r = Round()
        clock = time.perf_counter
        for task in inputs["tasks"]:
            t0 = clock()
            try:
                result = rb.exhaustive_search(task)
            except Exception as exc:  # counted as a failed operation; the run goes on
                r.failed += 1
                r.outputs.append(repr(exc))
            else:
                r.items += result.candidates
                r.outputs.append((result.candidates, tuple(s.reps for s in result.bent)))
            r.latencies.append(clock() - t0)
        return r

    def _range(self, layer, i):
        """Gray-index range [lo, hi) of shard i: the layer's 2^N - 1 candidates split evenly."""
        size = (1 << layer) - 1
        return 1 + size * i // self.total, 1 + size * (i + 1) // self.total

    def check(self, inputs, first, seed):
        problems = []
        n, d = self.n, self.d
        layer = ref.necklace_count(n, d)
        reps = inputs["reps"]
        if {ref.orbit_key(r, n) for r in reps} != set(ref.orbit_reps(n, d)):
            problems.append(f"orbit representatives for n={n} d={d} do not match the reference")
        spectra = _Spectra(problems)
        hit_keys = set()
        for i, out in zip(self.shards, first.outputs):
            if isinstance(out, str):
                continue  # a failed operation, counted in `failed`
            candidates, hits = out
            lo, hi = self._range(layer, i)
            if candidates != hi - lo:
                problems.append(f"shard {i}: {candidates} candidates, expected {hi - lo} of 2^{layer} - 1")
            if n == 10 and hits:
                problems.append(f"shard {i}: {len(hits)} bent functions in an n=10 layer, which has none")
            for hit in hits:
                monos = ref.expand(hit, n)
                if not ref.is_rotation_symmetric(ref.truth_table(monos, n), n):
                    problems.append(f"hit {hit} is not rotation-symmetric")
                if not ref.is_bent_spectrum(spectra.get(monos, n), n):
                    problems.append(f"hit {hit} is not bent")
                hit_keys.add(frozenset(ref.orbit_key(r, n) for r in hit))
        # seeded candidates from the searched shards, decoded the way the walk
        # numbers them: Gray index j selects the reps set in j ^ (j >> 1)
        rng = random.Random(seed)
        for _ in range(self.sample_size):
            lo, hi = self._range(layer, rng.choice(self.shards))
            j = rng.randrange(lo, hi)
            chosen = [r for k, r in enumerate(reps) if ((j ^ (j >> 1)) >> k) & 1]
            spec = spectra.get(ref.expand(chosen, n), n)
            key = frozenset(ref.orbit_key(r, n) for r in chosen)
            if ref.is_bent_spectrum(spec, n) and key not in hit_keys:
                problems.append(f"bent candidate {chosen} missing from the hits")
        return problems


class Query:
    """In-process `rotbent.cli.main` calls at n = 16, 18 and 20.

    Per n: bent-check on x1x(n/2+1), hcoeff --u on a seeded single-orbit
    degree-3 SANF with a seeded u of weight n-2, and classify-deg2.  At
    n=16 and 18 also bent-check on a seeded single-orbit SANF.  At n=16
    also nonexist on a seeded one- or two-orbit SANF, and hcoeff --all-u
    on the fixed `ALL_U_FIXED`: its 65,536 rows differ in length by SANF,
    and its time with them.  At n=18 and 20, nonexist takes the fixed
    `NONEXIST_FIXED`: there a rule that reaches witness verification costs
    a 2^n transform and one that declines costs 2 ms, so seeded picks would
    make a round's work depend on the seed.  n=20 keeps one call of each
    kind that needs no witness, because each further 2^20 call spreads
    about twice as much from run to run as an n=16 or n=18 call (see
    README).  The order is fixed: shuffled, it moved the peak memory after
    one round by 13% from seed to seed.
    """

    item = "query"
    expected = _CORE + _VALUATION + _RULES + (
        "cli.main",
        "rotsym.Sanf",
        "gf2poly.classify_degree2",
        "gf2poly.is_bent_degree2_rots",
    )
    sizes = (16, 18, 20)
    NONEXIST_FIXED = {18: ("x1x2x3", "x1x2x3+x1x2x4", "x1x2x5"), 20: ("x1x2x5",)}
    ALL_U_FIXED = "x1x2x4"

    def setup(self, rb, seed):
        rng = random.Random(seed)
        queries = []
        for n in self.sizes:
            reps = [rb.format_monomial(r) for r in rb.enumerate_orbit_reps(n, 3)]
            tail = ["-n", str(n)]
            u = ["1"] * n
            for j in rng.sample(range(n), 2):
                u[j] = "0"
            queries += [
                ["bent-check", *tail, f"x1x{n // 2 + 1}"],
                ["hcoeff", *tail, rng.choice(reps), "--u", "".join(u)],
                ["classify-deg2", *tail],
            ]
            if n < 20:
                queries.append(["bent-check", *tail, rng.choice(reps)])
            if n == 16:
                queries.append(["nonexist", *tail, "+".join(rng.sample(reps, rng.randint(1, 2)))])
                queries.append(["hcoeff", *tail, self.ALL_U_FIXED, "--all-u"])
            queries += [["nonexist", *tail, sanf] for sanf in self.NONEXIST_FIXED.get(n, ())]
        return {"queries": [q + ["--format", "json"] for q in queries]}

    def run_round(self, rb, inputs):
        r = Round()
        clock = time.perf_counter
        main = rb.cli.main
        for argv in inputs["queries"]:
            buf = io.StringIO()
            t0 = clock()
            try:
                with contextlib.redirect_stdout(buf):
                    code = main(argv)
            except Exception as exc:  # counted as a failed operation; the run goes on
                code = repr(exc)
            r.latencies.append(clock() - t0)
            text = buf.getvalue()
            r.output_bytes += len(text.encode())
            allowed = (0, 1) if argv[0] in ("bent-check", "nonexist") else (0,)
            if code in allowed:
                r.items += 1
                r.outputs.append((code, text))
            else:
                r.failed += 1
                r.outputs.append(f"exit {code}")
        return r

    def check(self, inputs, first, seed):
        problems = []
        spectra = _Spectra(problems)
        rng = random.Random(seed)
        for argv, out in zip(inputs["queries"], first.outputs):
            if isinstance(out, str):
                continue  # a failed operation, counted in `failed`
            code, text = out
            where = " ".join(argv[:-2])
            cmd, n = argv[0], int(argv[2])
            data = json.loads(text)
            if cmd == "classify-deg2":
                problems += self._check_classify(n, data["bent"], spectra, rng, where)
                continue
            monos = _parse_sanf_text(argv[3], n)
            spec = spectra.get(monos, n)
            bent = ref.is_bent_spectrum(spec, n)
            if cmd == "bent-check":
                if data["bent"] != bent or code != (0 if bent else 1):
                    problems.append(f"{where}: bent={data['bent']} exit {code}, reference {bent}")
                if argv[3] == f"x1x{n // 2 + 1}" and not data["bent"]:
                    problems.append(f"{where}: x1x(n/2+1) is bent at every even n")
            elif cmd == "nonexist":
                for name, rep in data["reports"].items():
                    if rep["verdict"] == "NOT_BENT" and bent:
                        problems.append(f"{where}: rule {name} says NOT_BENT on a bent function")
                    if rep["witness_u0"] is not None:
                        u0 = _bits_to_mask(rep["witness_u0"])
                        claimed = rep["claimed_valuation"]
                        _check_witness(problems, spectra, monos, n, u0, claimed, f"{where} {name}")
            elif "--all-u" in argv:
                harr = ref.all_cover_from_spectrum(spec, n)
                rows = data["values"]
                if sorted(_bits_to_mask(row["u"]) for row in rows) != list(range(1 << n)):
                    problems.append(f"{where}: rows do not cover every mask once")
                bad = [
                    row["u"]
                    for row in rows
                    if row["value"] != int(harr[_bits_to_mask(row["u"])])
                    or row["v2"] != _v2_text(row["value"])
                ]
                if bad:
                    problems.append(f"{where}: {len(bad)} coefficients differ, first u={bad[0]}")
            else:
                h = ref.cover_from_spectrum(spec, n, _bits_to_mask(argv[5]))
                if data["value"] != h or data["v2"] != _v2_text(h):
                    problems.append(f"{where}: H={data['value']} v2={data['v2']}, reference {h}")
        return problems

    @staticmethod
    def _check_classify(n, names, spectra, rng, where):
        problems = []
        want = (
            ref.degree2_bent_count_power_of_two(n) if n & (n - 1) == 0 else ref.degree2_bent_count(n)
        )
        if len(names) != want or len(set(names)) != len(names):
            problems.append(f"{where}: {len(names)} functions listed, reference {want}")
        for name in rng.sample(names, min(2, len(names))):
            monos = _parse_sanf_text(name, n)
            if any(m.bit_count() != 2 for m in monos) or not ref.is_bent_spectrum(
                spectra.get(monos, n), n
            ):
                problems.append(f"{where}: listed {name} is not a bent degree-2 function")
        return problems


def _v2_text(h):
    v = ref.v2(h)
    return "inf" if v == float("inf") else v


WORKLOADS = {
    "search-n10-d4": Search(10, 4, total=256, timed=16, offset=13),
    "query-large-n": Query(),
}

"""Span tracer that instruments rotbent from outside the package.

rotbent modules import each other's functions by name, so one function can
be bound in several module namespaces (`rotbent.walsh.is_bent`,
`rotbent.search.is_bent`, `rotbent.is_bent`, ...).  `instrument` replaces
every such binding with one wrapper, swaps the `RULES` tuples for tuples of
wrapped rules, and patches `Sanf.__post_init__` to count SANF constructions.
Spans (name, start, end, parent) and hook counts stay in memory in flat
arrays and are summarised once, when the run ends.
"""

import functools
import sys
import time
from array import array

import numpy as np

RULE_NAMES = ("shift-chain", "leading-block", "block-pair", "sparse-triple", "gap-bounds")

# Span name -> (defining module, attribute).  `_confirm_bent` is the one
# private name: it separates hit confirmation from the walk.
FUNCTIONS = {
    "search.exhaustive_search": ("rotbent.search", "exhaustive_search"),
    "search.confirm": ("rotbent.search", "_confirm_bent"),
    "walsh.walsh_spectrum": ("rotbent.walsh", "walsh_spectrum"),
    "walsh.is_bent": ("rotbent.walsh", "is_bent"),
    "rotsym.enumerate_orbit_reps": ("rotbent.rotsym", "enumerate_orbit_reps"),
    "rotsym.orbit_expand": ("rotbent.rotsym", "orbit_expand"),
    "rotsym.sanf_truth_table": ("rotbent.rotsym", "sanf_truth_table"),
    "boolfn.truth_table_from_anf": ("rotbent.boolfn", "truth_table_from_anf"),
    "covercoef.all_cover_coefficients": ("rotbent.covercoef", "all_cover_coefficients"),
    "covercoef.cover_coefficient": ("rotbent.covercoef", "cover_coefficient"),
    "covercoef.cover_coefficient_from_spectrum": (
        "rotbent.covercoef",
        "cover_coefficient_from_spectrum",
    ),
    "covercoef.bent_by_valuation": ("rotbent.covercoef", "bent_by_valuation"),
    "gf2poly.is_bent_degree2_rots": ("rotbent.gf2poly", "is_bent_degree2_rots"),
    "gf2poly.classify_degree2": ("rotbent.gf2poly", "classify_degree2"),
    "nonexistence.verify_witness": ("rotbent.nonexistence", "verify_witness"),
    "cli.main": ("rotbent.cli", "main"),
}
SANF_SPAN = "rotsym.Sanf"


class Tracer:
    """In-memory spans plus named counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self.counts = {}
        self.settled = {}  # (n, reps) -> True once some rule said NOT_BENT
        self.missing = set()  # expected bindings absent from the package

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name, fn, hook=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def _arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        return name, parent, dur

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        name, parent, dur = self._arrays()
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        out = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            out[label] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float((dur[sel] - child[sel]).sum()),
            }
        return out

    def child_totals(self, parent_label):
        """Per span name: calls and seconds of the direct children of `parent_label` spans."""
        if parent_label not in self._ids:
            return {}
        name, parent, dur = self._arrays()
        sel = (parent >= 0) & (name[np.maximum(parent, 0)] == self._ids[parent_label])
        return {
            self.names[nid]: (int((sel & (name == nid)).sum()), float(dur[sel & (name == nid)].sum()))
            for nid in np.unique(name[sel])
        }

    def write_spans(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name=np.asarray(self.span_name),
            parent=np.asarray(self.span_parent),
            start=np.asarray(self.span_start),
            end=np.asarray(self.span_end),
        )


def _walsh_hook(tracer, args, result):
    n = result.n
    size = 1 << n
    tracer.count("walsh.entries", size)
    tracer.count("walsh.butterfly_ops", n * size)
    # uint8 table read, int64 sign vector written, then n passes that read and
    # write every 8-byte entry; temporaries and cache traffic are not counted
    tracer.count("walsh.bytes_computed", size * (1 + 8 + 16 * n))


def _search_hook(tracer, args, result):
    tracer.count("search.candidates", result.candidates)
    tracer.count("search.hits", len(result.bent))


def _rule_hook(rule):
    def hook(tracer, args, result):
        sanf = args[0]
        key = (sanf.n, sanf.reps)
        fired = result.verdict == "NOT_BENT"
        if fired:
            tracer.count(f"nonexistence.not_bent.{rule}")
        tracer.settled[key] = tracer.settled.get(key, False) or fired

    return hook


_HOOKS = {"walsh.walsh_spectrum": _walsh_hook, "search.exhaustive_search": _search_hook}


def _rebind(original, replacement):
    """Point every rotbent module binding of `original` at `replacement`."""
    undo = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "rotbent" or modname.startswith("rotbent.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def instrument(tracer):
    """Wrap rotbent's layer functions; returns a callable that undoes it."""
    undo = []
    for label, (modname, attr) in FUNCTIONS.items():
        fn = getattr(sys.modules.get(modname), attr, None)
        if fn is None:
            tracer.missing.add(label)
            continue
        undo += _rebind(fn, tracer.wrap(label, fn, _HOOKS.get(label)))

    nonexistence = sys.modules.get("rotbent.nonexistence")
    rules = getattr(nonexistence, "RULES", None)
    if rules is None:
        tracer.missing.add("nonexistence.RULES")
    else:
        wrapped = tuple(
            (name, tracer.wrap(f"nonexistence.rule.{name}", fn, _rule_hook(name)))
            for name, fn in rules
        )
        undo += _rebind(rules, wrapped)

    sanf_cls = getattr(sys.modules.get("rotbent.rotsym"), "Sanf", None)
    post_init = getattr(sanf_cls, "__post_init__", None)
    if post_init is None:
        tracer.missing.add(SANF_SPAN)
    else:
        sanf_cls.__post_init__ = tracer.wrap(SANF_SPAN, post_init)
        undo.append((sanf_cls, "__post_init__", post_init))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def layer_metrics(tracer, rounds):
    """Per-layer metrics for one round of the timed section (totals / rounds)."""
    spans = tracer.summary()

    def calls(label):
        return spans.get(label, {}).get("calls", 0)

    def secs(*labels):
        return sum(spans.get(label, {}).get("total_s", 0.0) for label in labels) / rounds

    def per_round(value):
        return value // rounds if value % rounds == 0 else value / rounds

    counts = {k: per_round(v) for k, v in tracer.counts.items()}
    under_search = tracer.child_totals("search.exhaustive_search")
    spectral = per_round(under_search.get("walsh.is_bent", (0, 0.0))[0])
    table_build = sum(
        s for label, (_, s) in under_search.items() if label not in ("walsh.is_bent", "search.confirm")
    )
    candidates = counts.get("search.candidates", 0)
    m = {
        "search.candidates": (candidates, "count"),
        "search.spectral_tests": (spectral, "count"),
        "search.survivor_fraction": (spectral / candidates if candidates else 0.0, "fraction"),
        "search.hits": (counts.get("search.hits", 0), "count"),
        "search.walk_self_s": (
            spans.get("search.exhaustive_search", {}).get("self_s", 0.0) / rounds,
            "s",
        ),
        "search.table_build_s": (table_build / rounds, "s"),
        "search.confirm_s": (secs("search.confirm"), "s"),
        "walsh.transforms": (per_round(calls("walsh.walsh_spectrum")), "count"),
        "walsh.transform_s": (secs("walsh.walsh_spectrum"), "s"),
        "walsh.entries": (counts.get("walsh.entries", 0), "count"),
        "walsh.butterfly_ops": (counts.get("walsh.butterfly_ops", 0), "count"),
        "walsh.bytes_computed": (counts.get("walsh.bytes_computed", 0), "bytes"),
        "rotsym.orbit_reps_s": (secs("rotsym.enumerate_orbit_reps"), "s"),
        "rotsym.orbit_expand_calls": (per_round(calls("rotsym.orbit_expand")), "count"),
        "rotsym.orbit_expand_s": (secs("rotsym.orbit_expand"), "s"),
        "rotsym.truth_table_s": (secs("rotsym.sanf_truth_table"), "s"),
        "rotsym.sanf_built": (per_round(calls(SANF_SPAN)), "count"),
        "rotsym.sanf_build_s": (secs(SANF_SPAN), "s"),
        "boolfn.anf_to_table_calls": (per_round(calls("boolfn.truth_table_from_anf")), "count"),
        "boolfn.anf_to_table_s": (secs("boolfn.truth_table_from_anf"), "s"),
        "covercoef.all_cover_calls": (
            per_round(calls("covercoef.all_cover_coefficients")),
            "count",
        ),
        "covercoef.all_cover_s": (secs("covercoef.all_cover_coefficients"), "s"),
        "covercoef.single_calls": (
            per_round(
                calls("covercoef.cover_coefficient")
                + calls("covercoef.cover_coefficient_from_spectrum")
            ),
            "count",
        ),
        "covercoef.single_s": (
            secs("covercoef.cover_coefficient", "covercoef.cover_coefficient_from_spectrum"),
            "s",
        ),
        "covercoef.valuation_calls": (per_round(calls("covercoef.bent_by_valuation")), "count"),
        "covercoef.valuation_s": (secs("covercoef.bent_by_valuation"), "s"),
        "gf2poly.gcd_tests": (per_round(calls("gf2poly.is_bent_degree2_rots")), "count"),
        "gf2poly.classify_s": (secs("gf2poly.classify_degree2"), "s"),
    }
    for rule in RULE_NAMES:
        m[f"nonexistence.rule_s.{rule}"] = (secs(f"nonexistence.rule.{rule}"), "s")
        m[f"nonexistence.not_bent.{rule}"] = (counts.get(f"nonexistence.not_bent.{rule}", 0), "count")
    examined = len(tracer.settled)
    m["nonexistence.witness_verifications"] = (
        per_round(calls("nonexistence.verify_witness")),
        "count",
    )
    m["nonexistence.verify_s"] = (secs("nonexistence.verify_witness"), "s")
    m["nonexistence.settled_fraction"] = (
        sum(tracer.settled.values()) / examined if examined else 0.0,
        "fraction",
    )
    m["cli.self_s"] = (spans.get("cli.main", {}).get("self_s", 0.0) / rounds, "s")
    m["cli.output_bytes"] = (counts.get("cli.output_bytes", 0), "bytes")
    return m

"""Public surface: the exports the demos, bench and README use, one transform
kernel, and one run path set by arguments alone."""

import argparse
import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import rotbent
from rotbent.boolfn import _butterfly, _pattern_table, _xor_step
from rotbent.cli import build_parser
from rotbent.covercoef import _mobius_sub
from rotbent.walsh import _signed_step

ROOT = Path(__file__).resolve().parent.parent


def test_every_export_is_used_or_an_error_type():
    users = [*ROOT.glob("demos/*"), *ROOT.glob("bench/*.py"), ROOT / "README.md"]
    text = "\n".join(p.read_text(encoding="utf-8") for p in users if p.is_file())
    unused = []
    for name in rotbent.__all__:
        obj = getattr(rotbent, name)  # importable
        if isinstance(obj, type) and issubclass(obj, Exception):
            continue
        if not re.search(rf"\b{re.escape(name)}\b", text):
            unused.append(name)
    assert unused == []


def test_export_count_stays_small():
    assert len(rotbent.__all__) <= 38
    assert len(set(rotbent.__all__)) == len(rotbent.__all__)


def _named(node, modules):
    """How often each identifier is named under node.

    A name counts; so do `module.x` for a package module, and an import from
    the package. An attribute of anything else (`self.n`, `np.take`) and an
    import from outside are not uses of a package definition.
    """
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            if isinstance(sub.value, ast.Name) and sub.value.id in modules:
                names[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            if sub.level or (sub.module or "").split(".")[0] == "rotbent":
                names.update(alias.name for alias in sub.names)
    return names


def uncalled_definitions(src):
    """Module-level defs and classes in `src` named nowhere in it but their own body.

    A re-export in `__init__` counts as a use; rule bodies registered with
    `@_rule(...)` are reached through the registry and are exempt.
    """
    paths = sorted(src.glob("*.py"))
    modules = {p.stem for p in paths}
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in paths]
    named = sum((_named(tree, modules) for tree in trees), Counter())
    uncalled = []
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if any(ast.unparse(dec).startswith("_rule(") for dec in node.decorator_list):
                continue
            if named[node.name] == _named(node, modules)[node.name]:
                uncalled.append(node.name)
    return uncalled


def test_library_code_has_a_caller_in_the_library(tmp_path):
    # a function only tests call is code to delete, not to keep
    assert uncalled_definitions(ROOT / "src" / "rotbent") == []
    # a recursive call is no caller; a re-export, a registered rule and a
    # call through the module are; an attribute or an outside import of the
    # same name is not
    (tmp_path / "a.py").write_text(
        "def used():\n    return used()\n\n\ndef lone():\n    return lone()\n\n\n"
        "@_rule('r')\ndef body():\n    pass\n\n\nclass Exported:\n    pass\n\n\n"
        "def weight():\n    pass\n\n\ndef take():\n    pass\n\n\ndef via():\n    pass\n"
    )
    (tmp_path / "b.py").write_text(
        "import numpy as np\nfrom numpy import take\n\nfrom . import a\n\n\n"
        "def f(x):\n    return x.weight, np.take, a.via\n"
    )
    (tmp_path / "__init__.py").write_text("from .a import Exported, used\nfrom .b import f\n")
    assert uncalled_definitions(tmp_path) == ["lone", "weight", "take"]


def test_one_transform_kernel():
    # every fast transform goes through boolfn._butterfly: the (blocks, 2, h)
    # level view is built nowhere else
    sites = []
    for path in sorted((ROOT / "src" / "rotbent").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "reshape"
                    and [ast.unparse(a) for a in node.args[:2]] == ["-1", "2"]
                ):
                    sites.append((path.name, func.name))
    assert sites == [("boolfn.py", "_butterfly")]


def test_one_cli_row_writer():
    # `spectrum` and `hcoeff --all-u` lay out their rows with cli._rows, whose
    # dense rank needs no np.unique sort, and cli._print_rows alone turns a
    # NUL-padded byte-row table into text (its `.tobytes()`)
    sites = []
    tree = ast.parse((ROOT / "src" / "rotbent" / "cli.py").read_text(encoding="utf-8"))
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("tobytes", "unique")
            ):
                sites.append((func.name, node.func.attr))
    assert sites == [("_print_rows", "tobytes")]


def test_one_cli_output_path():
    # a command hands its record and its text to cli._emit, which alone picks
    # between them by --format; `spectrum` and `hcoeff --all-u` read the format
    # to lay out their byte rows, and main prints only its errors, to stderr
    tree = ast.parse((ROOT / "src" / "rotbent" / "cli.py").read_text(encoding="utf-8"))
    prints, formats, stdout = set(), set(), []
    for func in tree.body:
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "print":
                dest = [ast.unparse(kw.value) for kw in node.keywords if kw.arg == "file"]
                prints.add((func.name, *dest))
            if isinstance(node, ast.Attribute) and ast.unparse(node) == "args.format":
                formats.add(func.name)
            if isinstance(node, ast.Attribute) and node.attr == "stdout":
                stdout.append(func.name)
    assert sorted(prints) == [("_emit",), ("_print_rows",), ("main", "sys.stderr")]
    assert sorted(formats) == ["_emit", "_print_rows", "cmd_hcoeff", "cmd_spectrum"]
    assert stdout == []


def test_one_anf_to_table_transform():
    # boolfn._table_bits alone turns a monomial list into a table: no other
    # function counts monomials into an indicator (a ufunc's `.at`) or hands
    # `_xor_step`, the GF(2) transform, to the kernel.  The one exception is
    # the other direction, anf_from_truth_table, which runs the step on the
    # table's own bits (read as a monomial list, its ones took 12x as long at
    # n = 20)
    kernels = {"_butterfly", "_bit_butterfly"}
    sites = []

    def visit(node, scope):
        if isinstance(node, ast.FunctionDef):
            scope = node.name
        if isinstance(node, ast.Call):
            callee = ast.unparse(node.func)
            xor = "_xor_step" in [ast.unparse(a) for a in node.args]
            if callee.endswith(".at") or (callee.split(".")[-1] in kernels and xor):
                sites.append((path.name, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted((ROOT / "src" / "rotbent").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    assert sites == [("boolfn.py", "_table_bits")] * 2 + [("boolfn.py", "anf_from_truth_table")]


@pytest.mark.parametrize("step", [_xor_step, _signed_step, _mobius_sub])
def test_pattern_tables_are_the_kernel_on_every_pattern(step):
    # row p of a pattern table is `_butterfly` run on the 16 bits of p
    # (x1 first), packed back into a word for XOR, on (-1)^bits otherwise
    bits = (np.arange(1 << 16)[:, None] >> np.arange(16)) & 1
    table = _pattern_table(step)
    if step is _xor_step:
        assert table.dtype == np.uint16
        got = (table[:, None].astype(np.int64) >> np.arange(16)) & 1
        assert np.array_equal(got, _butterfly(bits.astype(np.uint8), step))
    else:
        assert table.dtype == np.int8
        assert np.array_equal(table, _butterfly((1 - 2 * bits).astype(np.int32), step))
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 0


def test_import_builds_no_pattern_table():
    # the tables are built on first use, so importing the package (as the
    # benchmark's set-up does, repeatedly) pays for none of them
    code = (
        "import rotbent\n"
        "from rotbent.boolfn import _pattern_table\n"
        "print(_pattern_table.cache_info().currsize)\n"
        "rotbent.walsh_spectrum(rotbent.boolfn.TruthTable(4, [0] * 16))\n"
        "print(_pattern_table.cache_info().currsize)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["0", "1"]


def test_one_witness_release_path():
    # a report that carries witness fields is built only in
    # nonexistence._try_witness, which releases it after verify_witness
    witness = {"witness_u0", "witness_k", "claimed_valuation"}
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if (
            isinstance(node, ast.Call)
            and ast.unparse(node.func).split(".")[-1] == "NonexistenceReport"
            and (len(node.args) > 3 or witness & {kw.arg for kw in node.keywords})
        ):
            sites.append((path.name, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted((ROOT / "src" / "rotbent").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    assert sites == [("nonexistence.py", "_try_witness")]


def test_rules_share_one_skeleton():
    # nonexistence._rule alone runs the gate and turns a decline reason into
    # an INCONCLUSIVE report; each rule's name is written once, in its decorator
    path = ROOT / "src" / "rotbent" / "nonexistence.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    constants = [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)]
    names = [name for name, _ in rotbent.nonexistence.RULES]
    assert {name: constants.count(name) for name in names} == dict.fromkeys(names, 1)
    gate_calls, declines = [], []
    for path in sorted((ROOT / "src" / "rotbent").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                callee = ast.unparse(node.func).split(".")[-1]
                args = [*node.args, *(kw.value for kw in node.keywords)]
                if callee == "_gate":
                    gate_calls.append((path.name, getattr(top, "name", None)))
                if callee == "NonexistenceReport" and any(
                    ast.unparse(a).split(".")[-1] == "INCONCLUSIVE" for a in args
                ):
                    declines.append((path.name, getattr(top, "name", None)))
    assert gate_calls == [("nonexistence.py", "_rule")]
    assert declines == [("nonexistence.py", "_rule")]


def test_one_cover_route_choice():
    # covercoef.cover_coefficient alone picks between the one restricted table
    # and the capped subset walk; no other module imports or reads the walk or
    # its cap (search._walk is its own function, so only covercoef's names count)
    private = {"CAPACITY", "_walk"}
    sites, spectrum_callers = [], []
    for path in sorted((ROOT / "src" / "rotbent").glob("*.py")):
        if path.name == "covercoef.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith(
                "covercoef"
            ):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Attribute) and ast.unparse(node.value).endswith(
                "covercoef"
            ):
                names = [node.attr]
            else:
                continue
            sites += [(path.name, m) for m in names if m in private]
        spectrum_callers += [
            path.name
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call)
            and ast.unparse(node.func).split(".")[-1] == "cover_coefficient_from_spectrum"
        ]
    assert sites == []
    # a single H(u) reaches the spectrum only as the witness cross-check
    assert spectrum_callers == ["nonexistence.py"]
    # one H(u) is one restricted table, never the full coefficient array
    tree = ast.parse((ROOT / "src" / "rotbent" / "covercoef.py").read_text(encoding="utf-8"))
    body = next(
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "cover_coefficient"
    )
    names = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    assert not names & {"_ARRAY_N_MAX", "all_cover_coefficients"}


def test_one_table_cap():
    # boolfn alone names the full-table cap; everything else calls its check
    sites = [
        path.name
        for path in sorted((ROOT / "src" / "rotbent").glob("*.py"))
        if re.search(r"\b_TABLE_N_MAX\b", path.read_text(encoding="utf-8"))
    ]
    assert sites == ["boolfn.py"]


def test_one_mask_check():
    # "a mask for n is an int in [0, 2^n)" is raised by boolfn's two checks and
    # by Sanf's inline per-rep check alone, and no mask is coerced by int()
    rule, sites = r"(mask|representative) .*out of range for n=", []
    for path in sorted((ROOT / "src" / "rotbent").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, ast.FunctionDef):
                sites += [
                    (path.name, func.name)
                    for node in ast.walk(func)
                    if isinstance(node, ast.Raise) and re.search(rule, ast.unparse(node))
                ]
    assert sorted(sites) == [
        ("boolfn.py", "_check_mask"),
        ("boolfn.py", "_check_masks"),
        ("rotsym.py", "__post_init__"),
    ]
    for name in ("boolfn.py", "rotsym.py"):
        text = (ROOT / "src" / "rotbent" / name).read_text(encoding="utf-8")
        assert not re.search(r"\bmap\(\s*int\b", text), name


def test_cli_imports_no_cap_constant():
    # a command past a cap fails with the library's own refusal
    tree = ast.parse((ROOT / "src" / "rotbent" / "cli.py").read_text(encoding="utf-8"))
    names = [
        a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names
    ]
    names += [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    assert [m for m in names if m.endswith("N_MAX") or m in {"CAPACITY", "BUDGET"}] == []


def test_one_route_comparison():
    # "methods disagree" is raised only by search.bent_verdict, the one place
    # bentness routes are compared
    sites = []
    for path in sorted((ROOT / "src" / "rotbent").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, ast.FunctionDef):
                sites += [
                    (path.name, func.name)
                    for node in ast.walk(func)
                    if isinstance(node, ast.Raise) and "methods disagree" in ast.unparse(node)
                ]
    assert sites == [("search.py", "bent_verdict")]


def test_the_benchmark_binds_to_existing_names(monkeypatch):
    # bench/ traces and calls rotbent by name from outside the package, so a
    # rename would otherwise show only as a warning in a traced benchmark run
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracer = importlib.import_module("tracer")
    bindings = tracer.FUNCTIONS.values()
    assert [b for b in bindings if not hasattr(importlib.import_module(b[0]), b[1])] == []
    assert tracer.RULE_NAMES == tuple(name for name, _ in rotbent.nonexistence.RULES)
    workloads = (ROOT / "bench" / "workloads.py").read_text(encoding="utf-8")
    names = sorted(set(re.findall(r"\brb\.(\w+)", workloads)))
    assert names and [name for name in names if not hasattr(rotbent, name)] == []


def test_one_layer_cache():
    # a layer's representatives are enumerated where its tables are built;
    # the crosscheck, which builds no tables, enumerates for itself
    tree = ast.parse((ROOT / "src" / "rotbent" / "search.py").read_text(encoding="utf-8"))
    sites = [
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Name) and node.id == "enumerate_orbit_reps"
    ]
    assert sites == ["_layer_tables", "search_crosscheck"]


def test_one_run_record():
    # a search's run record is built only in search.SearchResult.as_dict: its
    # added keys are dict keys nowhere else, and the stats names stay in search.py
    keys, builders = {"params_hash", "elapsed_s"}, {"dict", "update"}
    sites, stats = [], []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Constant) and node.value in keys:
            sites.append((path.name, scope))
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in builders:
            sites.extend((path.name, scope) for kw in node.keywords if kw.arg in keys)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted((ROOT / "src" / "rotbent").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        visit(ast.parse(text), None)
        stats += [path.name] if re.search(r"\b_STATS\b", text) else []
    assert sorted(set(sites)) == [("search.py", "SearchResult.as_dict")]
    assert stats == ["search.py"]


def test_no_environment_knobs_or_worker_pools():
    # a run is set by its arguments and runs in one process; parallel searches
    # are --shard slices started as separate processes
    pools = {"multiprocessing", "concurrent", "threading"}
    env = {"environ", "environb", "getenv", "getenvb"}
    sites = []
    for path in sorted((ROOT / "src" / "rotbent").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            sites += [(path.name, m) for m in names if m.split(".")[0] in pools or m in env]
    assert sites == []


def test_cli_options_are_fixed():
    # every option of every subcommand; adding or removing one means editing
    # this table (bent-check always cross-checks its routes, nonexist always
    # prints one row per rule, and the search budget is a constant)
    common = ["--format", "--help", "--nvars", "-h", "-n"]
    want = {
        "bent-check": common,
        "classify-deg2": common,
        "spectrum": common,
        "hcoeff": common + ["--all-u", "--u"],
        "nonexist": common + ["--rule"],
        "search": common + ["--checkpoint", "--degree", "--long-run", "--out", "--shard", "-d"],
    }
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: sorted(opt for action in sp._actions for opt in action.option_strings)
        for name, sp in sub.choices.items()
    }
    assert got == {name: sorted(opts) for name, opts in want.items()}


def _package_functions():
    """Every function of the package by name; a class name maps to its methods."""
    defs = {}
    for path in sorted((ROOT / "src" / "rotbent").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, ast.FunctionDef):
                defs.setdefault(top.name, []).append(top)
            elif isinstance(top, ast.ClassDef):
                methods = [f for f in top.body if isinstance(f, ast.FunctionDef)]
                defs.setdefault(top.name, []).extend(methods)
    return defs


def test_the_re_test_reads_only_n_reps_and_slots_of_the_orbit_tables():
    # _confirm_bent is the slow route the fast one is checked against: it reads
    # the layer's size, representatives and slot inputs, and nothing that the
    # walk, weight filter or sieve computed.  Statically, over every package
    # function it can reach by name ...
    defs = _package_functions()
    (confirm,) = defs["_confirm_bent"]
    reads = [
        n for n in ast.walk(confirm) if isinstance(n, ast.Attribute) and ast.unparse(n.value) == "orb"
    ]
    assert {a.attr for a in reads} == {"n", "reps", "slots"}
    # every other use of the name would hand the whole object on
    uses = [n for n in ast.walk(confirm) if isinstance(n, ast.Name) and n.id == "orb"]
    assert len(uses) == len(reads)
    seen, todo = set(), ["_confirm_bent"]
    while todo:
        name = todo.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        for func in defs[name]:
            for node in ast.walk(func):
                ref = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                todo += [ref] if ref in defs else []
    assert {"sanf_truth_table", "orbit_expand", "_table_bits", "is_bent", "Sanf"} <= seen
    layer = {"_OrbitTables", "_layer", "_layer_tables", "_walk"}
    for name in seen - {"_confirm_bent"}:
        for func in defs[name]:
            names = {n.id for n in ast.walk(func) if isinstance(n, ast.Name)}
            assert not names & (layer | {"orb"}), name
    # ... and at run time, through a stand-in that records every field read
    from rotbent import search

    class Reads:
        def __init__(self, orb):
            self.orb, self.names = orb, set()

        def __getattr__(self, name):
            self.names.add(name)
            return getattr(self.orb, name)

    orb = search._layer_tables(8, 2)
    stand_in = Reads(orb)
    verdicts = []
    for subset in range(1, 1 << len(orb.reps)):
        sanf = search._subset_sanf(8, orb.reps, subset)
        bits = search.sanf_truth_table(sanf).bits[orb.slots]
        verdicts.append(search._confirm_bent(stand_in, subset, bits) is not None)
    assert sum(verdicts) == 8 and stand_in.names == {"n", "reps", "slots"}

"""Static checks on the package sources."""

import ast
import dataclasses
import re
from pathlib import Path

import stabcover
from stabcover.graphs import LabeledGraph
from stabcover.stability import GroupContext


def _package_trees():
    """(file name, syntax tree) of every package module."""
    for path in sorted(Path(stabcover.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import that no expression of the module reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_scan_sees_them():
    tree = ast.parse("import os\nfrom functools import reduce as r, wraps\nwraps\n")
    assert _unused_imports(tree) == ["1: os", "2: r"]


def test_no_unused_imports():
    offenders = []
    for name, tree in _package_trees():
        offenders += [f"{name}:{entry}" for entry in _unused_imports(tree)]
    assert offenders == []


def _referrers(tree: ast.Module, name: str) -> set[str]:
    """Functions whose bodies name `name` (the innermost one for nested)."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if getattr(node, "id", None) == name or getattr(node, "attr", None) == name:
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_only_cayley_graph_and_double_cover_skip_the_symmetry_check():
    # `graphs._symmetric_graph` builds a LabeledGraph without its O(edges)
    # symmetry check; only the two constructors that prove symmetry in
    # their docstrings may name it
    probe = ast.parse("def f():\n    g.h._s(1)\nk = _s\ndef _s(): pass\n")
    assert _referrers(probe, "_s") == {"f", "<module>"}
    callers = set()
    for name, tree in _package_trees():
        callers |= {f"{name}:{f}" for f in _referrers(tree, "_symmetric_graph")}
    assert callers == {"graphs.py:cayley_graph", "graphs.py:double_cover"}


def _seeding_callers(tree: ast.Module, name: str) -> set[str]:
    """Functions whose bodies call `name` with a `seeds` or `**` keyword."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if name in (getattr(func, "id", None), getattr(func, "attr", None)):
                if any(k.arg in ("seeds", None) for k in node.keywords):
                    found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_only_proved_seeds_skip_the_seed_check():
    # `autgrp.automorphism_group` takes its seeds unchecked; only the two
    # stability searches whose one seed is the proved inversion or its
    # lift may pass any
    probe = ast.parse(
        "def f(g):\n    return m._t(g, [[0]], seeds=[s])\n"
        "def h(g):\n    return _t(g, **k)\n"
        "def k(g):\n    return _t(g, [[0]]), u(seeds=[s])\n"
    )
    assert _seeding_callers(probe, "_t") == {"f", "h"}
    callers = set()
    for name, tree in _package_trees():
        callers |= {f"{name}:{f}" for f in _seeding_callers(tree, "automorphism_group")}
    assert callers == {"stability.py:_b0_search", "stability.py:factored_orders"}


def _names(tree: ast.Module) -> set[str]:
    """Every name the module imports or reads as a name or an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name for alias in node.names}
        ref = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(ref, str):
            names.add(ref)
    return names


def test_one_right_product_path():
    # `perms.mul_each` is the one right product of a listing: no module
    # names `methodcaller`, imported or as `operator.methodcaller`, and
    # only perms.py names `translate` (the bytes product), so no second
    # product path grows elsewhere
    probe = ast.parse("from operator import methodcaller\nimport operator\nb''.translate(t)\n")
    assert _names(probe) == {"methodcaller", "operator", "translate", "t"}
    trees = dict(_package_trees())
    assert [name for name, tree in trees.items() if "methodcaller" in _names(tree)] == []
    assert [name for name, tree in trees.items() if "translate" in _names(tree)] == ["perms.py"]


def test_one_adjacency_form():
    # rows are a graph's only adjacency: no package module names `nbrs`,
    # as an attribute or a name, or `_build_nbrs`, so no second form of
    # the neighbourhoods grows back beside them
    probe = ast.parse("nbrs = g.nbrs\nf(_build_nbrs)\n")
    assert _names(probe) == {"nbrs", "g", "f", "_build_nbrs"}
    named = [
        f"{name}: {form}"
        for name, tree in _package_trees()
        for form in ("nbrs", "_build_nbrs")
        if form in _names(tree)
    ]
    assert named == []


def _group_and_set_takers(tree: ast.Module) -> list[str]:
    """Functions with a parameter annotated `AbelianGroup` and one annotated `ConnectionSet`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            words = set()
            for arg in a.posonlyargs + a.args + a.kwonlyargs:
                if arg.annotation is not None:
                    words |= set(re.findall(r"\w+", ast.unparse(arg.annotation)))
            if {"AbelianGroup", "ConnectionSet"} <= words:
                found.append(node.name)
    return found


def _identifiers(tree: ast.Module) -> set[str]:
    """`_names`, and every parameter and keyword argument name."""
    args = {n.arg for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.keyword))}
    return _names(tree) | (args - {None})


def test_each_input_is_given_once():
    # a connection set carries its group, a graph its vertex count and a
    # search its one coloring: no package function takes a group beside a
    # set, no module names `fixed_blocks`, and a graph is built from its
    # rows alone
    probe = ast.parse(
        "def f(G: AbelianGroup, S: 'ConnectionSet | None' = None): pass\n"
        "def g(G: AbelianGroup, n: int, S=None):\n"
        "    def h(x, *, s: ConnectionSet, H: groups.AbelianGroup): pass\n"
        "a(g, fixed_blocks=[])\n"
    )
    assert _group_and_set_takers(probe) == ["f", "h"]
    assert "fixed_blocks" in _identifiers(probe)
    assert "fixed_blocks" in _identifiers(ast.parse("def f(fixed_blocks): pass\n"))
    trees = dict(_package_trees())
    takers = [f"{name}: {f}" for name, tree in trees.items() for f in _group_and_set_takers(tree)]
    assert takers == []
    assert [name for name, tree in trees.items() if "fixed_blocks" in _identifiers(tree)] == []
    assert [f.name for f in dataclasses.fields(LabeledGraph) if f.init] == ["rows"]


def test_groups_take_a_base_and_searches_confirm_at_nodes():
    # Schreier-Sims lives in the tests' helpers, and automorphisms are
    # confirmed at search nodes, never read off a first leaf; so no package
    # module defines the Schreier-Sims steps or names `first_leaf`, and
    # the one group constructor call, the automorphism search's, passes a
    # base its generators are strong for
    defined, named, calls = [], [], []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name in ("_incorporate", "_close_level", "from_base"):
                    defined.append(f"{name}:{node.lineno}: {node.name}")
            if "first_leaf" in (getattr(node, "id", None), getattr(node, "attr", None)):
                named.append(f"{name}:{node.lineno}")
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", getattr(func, "attr", None)) == "PermutationGroup":
                    given = len(node.args) + len(node.keywords)
                    calls.append((f"{name}:{node.lineno}", given))
    assert defined == [] and named == []
    assert [where.split(":")[0] for where, _ in calls] == ["autgrp.py"]
    assert [where for where, given in calls if given != 3] == []


def test_classify_has_no_s1_branch():
    # every set's three orders come from `factored_orders`, of which S1 is
    # the trivial twin quotient; `classify` runs one structure pass and
    # names no search, diagonal count or repeated predicate of its own
    trees = dict(_package_trees())
    named = sorted(
        name
        for name in ("b0_group", "automorphism_group", "_diagonal_count", "is_connected",
                     "is_twin_free", "is_bipartite", "component_mask", "close_subgroup")
        if "classify" in _referrers(trees["stability.py"], name)
    )
    assert named == []


def test_one_form_per_group_fact():
    # only `addition_rows` names the addition table's limit (<module> is
    # its definition), no module reads a listing of Aut(G) off the context,
    # and no function in stability.py adds group elements or names twins:
    # twin classes are the classes of equal rows
    probe = ast.parse(
        "ADDITION_TABLE_ORDER = 1\n"
        "def addition_rows(): ADDITION_TABLE_ORDER\n"
        "def f(G): return G.add(1, 2), ctx.automorphisms\n"
        "def g(twins): return twins\n"
    )
    assert _referrers(probe, "ADDITION_TABLE_ORDER") == {"<module>", "addition_rows"}
    assert _referrers(probe, "add") == {"f"} and _referrers(probe, "twins") == {"g"}
    assert "automorphisms" in _names(probe)
    trees = dict(_package_trees())
    assert _referrers(trees["groups.py"], "ADDITION_TABLE_ORDER") == {"<module>", "addition_rows"}
    assert [name for name, tree in trees.items() if "automorphisms" in _names(tree)] == []
    assert not hasattr(GroupContext, "automorphisms")
    assert _referrers(trees["stability.py"], "add") == set()
    assert _referrers(trees["stability.py"], "twins") == set()


# public names that no package module calls, each kept for a reason
UNCALLED_PUBLIC = {
    "groups.holomorph": "the benchmark's set-up lists Hol(G) with it",
    "graphs.is_connected": "the benchmark's graphs.predicates trace layer wraps it",
    "graphs.is_bipartite": "the benchmark's graphs.predicates trace layer wraps it",
    "graphs.is_twin_free": "the benchmark's graphs.predicates trace layer wraps it",
}


def _uncalled_public(trees: dict) -> list[str]:
    """module.name of each public module-level function or class that no
    package module names outside the name's own definition."""
    named = []  # (top-level statement, name) per name or attribute read
    for tree in trees.values():
        for top in tree.body:
            for node in ast.walk(top):
                ref = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(ref, str):
                    named.append((top, ref))
    out = []
    for fname, tree in trees.items():
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if top.name.startswith("_"):
                continue
            if not any(ref == top.name and where is not top for where, ref in named):
                out.append(f"{fname.removesuffix('.py')}.{top.name}")
    return out


def test_uncalled_public_scan_sees_them():
    trees = {
        "a.py": ast.parse("def f():\n    f()\ndef g(): pass\nclass _H: pass\nclass K: pass\n"),
        "b.py": ast.parse("from a import f, K\ng()\nx = K\n"),
    }
    assert _uncalled_public(trees) == ["a.f"]


def test_every_public_name_has_a_caller():
    # a public function or class that nothing in the package calls is dead
    # API; only the names above, which the benchmark reaches from outside
    # the package, are kept without a caller
    trees = dict(_package_trees())
    assert sorted(_uncalled_public(trees)) == sorted(UNCALLED_PUBLIC)

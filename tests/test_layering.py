"""The second routes stay in ``oracles``, each reached from ``verify``,
and no package module but ``cli`` imports it; the public names are fixed;
every bound row states its relation once; and the package modules import
one another only at module level, without a cycle."""

from __future__ import annotations

import ast
import inspect
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import z2z4q8

PUBLIC_NAMES = [
    "BinaryVector", "BoundCheck", "BoundReport", "ClassificationError",
    "CodeGroup", "CodeType", "ConstructionError", "ConverseResult",
    "CoordinatePermutation", "DEFAULT_MAX_ORDER", "EnumerationLimit",
    "FoundCode", "GroupSignature", "GroupWord", "KroneckerResult",
    "ParseError", "Shape", "SignatureMismatch", "StandardGenSet", "analyze",
    "binary_kernel", "center", "check_bounds", "classify_shape", "code_type",
    "commutator", "commutator_subgroup", "complement", "conjugate", "distance",
    "extend", "format_generators", "generalized_kronecker", "generate", "gray",
    "gray_inv", "group_kernel", "hadamard_bounds", "identity", "is_abelian",
    "is_extended_perfect", "is_hadamard", "is_linear", "is_perfect",
    "kernel_dim", "kronecker", "normalize_generators", "parse_element",
    "parse_generators", "pi_of", "propelinear_product",
    "random_doubling_element", "rank", "render_json", "render_summary",
    "search", "span_group", "standard_generators", "structural_converse_check",
    "swapper", "torsion", "u_element", "weight", "weight_distribution", "word",
    "word_from_tokens", "xi_lift",
]

# the parameter names of every public callable; None for an exception
# class that keeps the built-in constructor
PUBLIC_SIGNATURES = {
    "BinaryVector": ("n", "bits"),
    "BoundCheck": ("name", "lhs", "rhs", "ok"),
    "BoundReport": ("checks",),
    "ClassificationError": None,
    "CodeGroup": ("sig", "generators"),
    "CodeType": ("sigma", "delta", "rho"),
    "ConstructionError": None,
    "ConverseResult": ("base", "doubling_element", "relabeled", "coordinate_autos"),
    "CoordinatePermutation": ("image",),
    "EnumerationLimit": None,
    "FoundCode": ("signature", "generators", "type", "rank", "kernel_dim", "shape"),
    "GroupSignature": ("k1", "k2", "k3"),
    "GroupWord": ("sig", "coords"),
    "KroneckerResult": ("output", "predicted_type"),
    "ParseError": ("message", "line", "column"),
    "Shape": ("tag", "witness", "epsilon", "structure", "trail"),
    "SignatureMismatch": None,
    "StandardGenSet": ("xs", "ys", "zs"),
    "analyze": ("C",),
    "binary_kernel": ("C",),
    "center": ("C",),
    "check_bounds": ("C",),
    "classify_shape": ("C",),
    "code_type": ("C",),
    "commutator": ("x", "y"),
    "commutator_subgroup": ("C",),
    "complement": ("v",),
    "conjugate": ("x", "y"),
    "distance": ("u", "v"),
    "extend": ("Cq", "x", "max_order"),
    "format_generators": ("sig", "words", "comment"),
    "generalized_kronecker": ("C", "g", "max_order"),
    "generate": ("generators", "max_order"),
    "gray": ("w",),
    "gray_inv": ("v", "sig"),
    "group_kernel": ("C",),
    "hadamard_bounds": ("C",),
    "identity": ("sig",),
    "is_abelian": ("C",),
    "is_extended_perfect": ("C",),
    "is_hadamard": ("C",),
    "is_linear": ("C",),
    "is_perfect": ("C",),
    "kernel_dim": ("C",),
    "kronecker": ("C", "max_order"),
    "normalize_generators": ("C",),
    "parse_element": ("text", "sig"),
    "parse_generators": ("text",),
    "pi_of": ("w",),
    "propelinear_product": ("w", "v"),
    "random_doubling_element": ("sig", "rng"),
    "rank": ("C",),
    "render_json": ("payload",),
    "render_summary": ("payload",),
    "search": ("length", "shape", "seed", "budget"),
    "span_group": ("C",),
    "standard_generators": ("C",),
    "structural_converse_check": ("C",),
    "swapper": ("x", "y"),
    "torsion": ("C",),
    "u_element": ("sig",),
    "weight": ("v",),
    "weight_distribution": ("C",),
    "word": ("sig", "coords"),
    "word_from_tokens": ("sig", "tokens"),
    "xi_lift": ("C",),
}


def _tree(module: str) -> ast.Module:
    source = resources.files("z2z4q8").joinpath(f"{module}.py").read_text()
    return ast.parse(source)


def _top_level_names(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _imports_oracles(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.split(".")[-1] == "oracles" or (
            not module and any(a.name == "oracles" for a in node.names)
        )
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[-1] == "oracles" for a in node.names)
    return False


def test_hot_modules_import_no_oracle_and_define_no_moved_name():
    """The second routes are a leaf: no package module but ``cli``
    (``analyze --verify``) imports ``oracles``, and none defines a name
    that ``oracles`` defines."""
    moved = _top_level_names(_tree("oracles"))
    assert {"gray_codewords", "gray_basis", "_swapper_bits", "_products"} <= moved
    assert {"translation_kernel", "full_space_kernel", "swapper_scan_kernel"} <= moved
    for module in _package_modules():
        if module in ("cli", "oracles"):
            continue
        tree = _tree(module)
        assert not any(_imports_oracles(node) for node in ast.walk(tree)), module
        assert not moved & _top_level_names(tree), module


def test_importing_the_library_leaves_the_oracles_unloaded():
    """``import z2z4q8`` and the report and fixture modules do not load
    ``z2z4q8.oracles``; only ``import z2z4q8.oracles`` (or the CLI) does."""
    src = str(Path(z2z4q8.__file__).resolve().parents[1])
    code = (
        "import sys, z2z4q8, z2z4q8.report, z2z4q8.fixtures; "
        "print('z2z4q8.oracles' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "False\n"


def test_gf2_imports_no_package_module_and_no_module_redefines_its_names():
    """The GF(2) toolkit stands alone: ``gf2`` imports no module of the
    package, and no other module defines a top-level name that ``gf2``
    defines, so the package keeps one span, one null space and one lane
    layout."""
    tree = _tree("gf2")
    assert not [m for node in ast.walk(tree) for m in _package_imports(node)]
    owned = _top_level_names(tree)
    assert {"span", "walk", "null_space", "pack", "unpack", "lane_ones"} <= owned
    for module in _package_modules():
        if module != "gf2":
            assert not owned & _top_level_names(_tree(module)), module


def test_conftest_defines_no_oracle():
    oracles = _top_level_names(_tree("oracles"))
    conftest = (Path(__file__).parent / "conftest.py").read_text()
    assert not oracles & _top_level_names(ast.parse(conftest))


def test_every_oracle_is_reached_by_verify():
    """Walk the calls between the functions of ``oracles.py`` from
    ``verify``."""
    functions = {
        node.name: node
        for node in _tree("oracles").body
        if isinstance(node, ast.FunctionDef)
    }
    reached, frontier = set(), ["verify"]
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        frontier += [
            node.id
            for node in ast.walk(functions[name])
            if isinstance(node, ast.Name) and node.id in functions
        ]
    assert reached == set(functions)


def test_public_names_are_pinned():
    assert z2z4q8.__all__ == PUBLIC_NAMES


def _parameter_names(obj):
    try:
        return tuple(inspect.signature(obj).parameters)
    except ValueError:
        return None


def test_public_signatures_are_pinned():
    """A public parameter is added or removed only with this pin."""
    callables = [name for name in z2z4q8.__all__ if callable(getattr(z2z4q8, name))]
    assert {name: _parameter_names(getattr(z2z4q8, name)) for name in callables} == (
        PUBLIC_SIGNATURES
    )


def test_constructions_read_no_coset_scan_and_no_words_of_a_group():
    """The constructions decide from presentations: ``constructions.py``
    neither imports ``_coset_reps`` nor reads ``.elements``."""
    tree = _tree("constructions")
    imported = {
        a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names
    }
    assert "_coset_reps" not in imported
    assert not any(
        isinstance(node, ast.Attribute) and node.attr == "elements" for node in ast.walk(tree)
    )


def test_report_writes_its_json_without_the_json_encoder():
    """``render_json`` fills templates: ``report.py`` calls no ``dumps`` and
    takes from ``json`` only the C string escape."""
    tree = _tree("report")
    assert not any(
        isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) == "dumps"
        for node in ast.walk(tree)
    )
    json_imports = [
        (node.module, a.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json"
        for a in node.names
    ]
    assert json_imports == [("json.encoder", "encode_basestring_ascii")]
    assert not any(
        isinstance(node, ast.Import) and any(a.name.split(".")[0] == "json" for a in node.names)
        for node in ast.walk(tree)
    )


def _package_modules() -> list:
    return sorted(
        path.name[:-3]
        for path in resources.files("z2z4q8").iterdir()
        if path.name.endswith(".py")
    )


def _package_imports(node: ast.AST) -> list:
    """The package modules an import statement names: ``from .x import``,
    ``from . import x`` and the absolute forms of both."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("z2z4q8.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    module = node.module or ""
    if node.level == 0 and module.split(".")[0] != "z2z4q8":
        return []
    parts = module.split(".")[1:] if node.level == 0 else module.split(".")
    if parts and parts[0]:
        return [parts[0]]
    return [a.name for a in node.names]


def test_bound_rows_are_built_by_the_relation_helpers():
    """Each bound row states its relation once: ``BoundCheck`` is called only
    by ``_le`` and ``_eq``, and by the shape-4 chain row, whose verdict is a
    chain of two relations and not its lhs/rhs relation."""
    calls = []
    for module in ("invariants", "hadamard"):
        for fn in _tree(module).body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "BoundCheck":
                    first = node.args[0]
                    name = first.value if isinstance(first, ast.Constant) else ast.unparse(first)
                    calls.append((module, fn.name, name))
    assert sorted(calls) == [
        ("hadamard", "hadamard_bounds", "shape 4 chain: rank <= sigma+delta+rho+1 <= sigma+4"),
        ("invariants", "_eq", "name"),
        ("invariants", "_le", "name"),
    ]


def test_package_modules_import_at_module_level_and_without_a_cycle():
    """No module of the package imports another inside a function, and the
    graph of the module-level imports between them has no cycle."""
    graph = {}
    for module in _package_modules():
        tree = _tree(module)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [m for node in ast.walk(fn) for m in _package_imports(node)]
                assert not inner, (module, fn.name, inner)
        graph[module] = {m for node in ast.walk(tree) for m in _package_imports(node)}
    assert graph["report"] >= {"hadamard", "invariants", "subgroup"}
    assert "oracles" in graph["cli"]
    done, path = set(), []

    def visit(module):
        assert module not in path, path[path.index(module):] + [module]
        if module in done:
            return
        path.append(module)
        for target in sorted(graph[module]):
            visit(target)
        path.pop()
        done.add(module)

    for module in graph:
        visit(module)


# Private names that no code in the package reads, each kept for a reader
# outside it.
UNREFERENCED_PRIVATE_NAMES = {
    ("groups", "_tables"): "perfbench/worker.py calls it to warm the layout caches",
}


def _defined_names(node: ast.stmt) -> list:
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _referenced_names(node: ast.AST) -> set:
    """The names a piece of code reads: loaded names, attributes and
    imported names; a name in a docstring or comment is not code."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(a.name for a in sub.names)
    return names


def test_every_private_name_is_read_by_other_code_of_the_package():
    """Code that nothing needs is deleted: every private name defined at
    module level in the package is read by code outside its own
    definition, in any module of the package, except the listed ones,
    which no code of the package reads."""
    statements = [
        (module, node, _referenced_names(node))
        for module in _package_modules()
        for node in _tree(module).body
    ]
    unread = {
        (module, name)
        for module, node, _ in statements
        for name in _defined_names(node)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in read for _, other, read in statements if other is not node)
    }
    assert unread == set(UNREFERENCED_PRIVATE_NAMES)


# Public names that no code of the package or of perfbench reads, each kept
# for a reader outside them.
UNREAD_PUBLIC_NAMES = {
    "binary_kernel": "perfbench/tracer.py wraps it by its name, given as a string",
    "commutator_subgroup": "the paper's C'; tests/test_subgroup.py checks it",
    "complement": "a Gray-image helper: Gray(u w), tested in tests/test_gray.py",
    "distance": "a Gray-image helper; demos/01_group_arithmetic.py uses it",
    "propelinear_product": "demo 01 and the tests' second route to the product",
}


def test_every_public_name_is_read_or_listed():
    """The private-name rule for the public names: every name of
    ``z2z4q8.__all__`` is read by code of the package outside its own
    definition and outside ``__init__.py``, or by perfbench, except the
    listed ones."""
    statements = [
        (node, _referenced_names(node))
        for module in _package_modules()
        if module != "__init__"
        for node in _tree(module).body
    ]
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    read = set().union(*(
        _referenced_names(ast.parse(path.read_text())) for path in perfbench.rglob("*.py")
    ))
    for node, names in statements:
        defined = set(_defined_names(node))
        read |= names - defined
    unread = set(z2z4q8.__all__) - read
    assert unread == set(UNREAD_PUBLIC_NAMES)

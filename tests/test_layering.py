"""The second routes stay in ``oracles``, each with a caller, and the public
names are fixed."""

from __future__ import annotations

import ast
from importlib import resources
from pathlib import Path

import z2z4q8

HOT_MODULES = ("subgroup", "invariants", "hadamard", "constructions", "search")

PUBLIC_NAMES = [
    "BinaryVector", "BoundCheck", "BoundReport", "ClassificationError",
    "CodeGroup", "CodeType", "ConstructionError", "ConverseResult",
    "CoordinatePermutation", "DEFAULT_MAX_ORDER", "EnumerationLimit",
    "FoundCode", "GroupSignature", "GroupWord", "KroneckerResult",
    "LiftResult", "NormalizedGenSet", "ParseError", "Shape",
    "SignatureMismatch", "StandardGenSet", "StructureReport", "analyze",
    "binary_kernel", "center", "check_bounds", "classify_shape", "code_type",
    "commutator", "commutator_subgroup", "complement", "conjugate", "distance",
    "extend", "format_generators", "generalized_kronecker", "generate", "gray",
    "gray_inv", "group_kernel", "hadamard_bounds", "identity", "is_abelian",
    "is_extended_perfect", "is_hadamard", "is_linear", "is_perfect",
    "kernel_dim", "kronecker", "lift_and_extend", "normalize_generators",
    "parse_element", "parse_generators", "pi_of", "propelinear_product",
    "random_doubling_element", "rank", "render_json", "render_summary",
    "search", "span_group", "standard_generators", "structural_converse_check",
    "structure_report", "swapper", "torsion", "u_element", "weight",
    "weight_distribution", "word", "word_from_tokens", "xi_lift",
]


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
    moved = _top_level_names(_tree("oracles"))
    assert {"gray_codewords", "gray_basis", "_swapper_bits", "is_perfect"} <= moved
    assert {"translation_kernel", "full_space_kernel", "swapper_scan_kernel"} <= moved
    for module in HOT_MODULES:
        tree = _tree(module)
        assert not any(_imports_oracles(node) for node in ast.walk(tree)), module
        assert not moved & _top_level_names(tree), module


def test_conftest_defines_no_oracle():
    oracles = _top_level_names(_tree("oracles"))
    conftest = (Path(__file__).parent / "conftest.py").read_text()
    assert not oracles & _top_level_names(ast.parse(conftest))


def test_every_oracle_is_reached_by_verify_or_the_fixtures():
    """Walk the calls between the functions of ``oracles.py`` from
    ``verify`` and from the names ``fixtures.py`` imports from it."""
    functions = {
        node.name: node
        for node in _tree("oracles").body
        if isinstance(node, ast.FunctionDef)
    }
    roots = {"verify"}
    for node in ast.walk(_tree("fixtures")):
        if _imports_oracles(node):
            roots.update(a.name for a in node.names)
    assert {"is_perfect", "is_extended_perfect"} <= roots
    reached, frontier = set(), list(roots)
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

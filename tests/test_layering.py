"""The enumerating routes stay in ``oracles``, and the public names are fixed."""

from __future__ import annotations

import ast
from importlib import resources

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
    "commutator", "commutator_subgroup", "complement", "conjugate",
    "constructions", "distance", "extend", "format_generators",
    "generalized_kronecker", "generate", "gf2", "gray", "gray_inv",
    "group_kernel", "groups", "hadamard", "hadamard_bounds", "identity",
    "invariants", "is_abelian", "is_extended_perfect", "is_hadamard",
    "is_linear", "is_perfect", "kernel_dim", "kronecker", "lift_and_extend",
    "normalize_generators", "parse_element", "parse_generators", "parsing",
    "pi_of", "propelinear_product", "random_doubling_element", "rank",
    "render_json", "render_summary", "report", "search", "span_group",
    "standard_generators", "structural_converse_check", "structure_report",
    "subgroup", "swapper", "torsion", "u_element", "weight",
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


def test_public_names_are_pinned():
    assert z2z4q8.__all__ == PUBLIC_NAMES

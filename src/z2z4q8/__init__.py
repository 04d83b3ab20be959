"""Translation-invariant propelinear codes over Z2^k1 x Z4^k2 x Q8^k3.

Exact arithmetic for the ambient groups, Gray images and their invariants
(type, rank, kernel, linearity), Hadamard structure analysis (normalized
generators, the five shapes, sharpened bounds), and the doubling and
Kronecker constructions.
"""

from .constructions import (
    ConstructionError,
    ConverseResult,
    KroneckerResult,
    extend,
    generalized_kronecker,
    kronecker,
    random_doubling_element,
    structural_converse_check,
    xi_lift,
)
from .gray import (
    BinaryVector,
    CoordinatePermutation,
    complement,
    distance,
    gray,
    gray_inv,
    pi_of,
    propelinear_product,
    weight,
)
from .groups import (
    GroupSignature,
    GroupWord,
    SignatureMismatch,
    commutator,
    conjugate,
    identity,
    u_element,
    word,
    word_from_tokens,
)
from .hadamard import (
    ClassificationError,
    Shape,
    classify_shape,
    hadamard_bounds,
    is_hadamard,
    normalize_generators,
)
from .invariants import (
    BoundCheck,
    BoundReport,
    binary_kernel,
    check_bounds,
    is_abelian,
    is_extended_perfect,
    is_linear,
    is_perfect,
    kernel_dim,
    rank,
    span_group,
    swapper,
    weight_distribution,
)
from .parsing import ParseError, format_generators, parse_element, parse_generators
from .report import analyze, render_json, render_summary
from .search import FoundCode, search
from .subgroup import (
    DEFAULT_MAX_ORDER,
    CodeGroup,
    CodeType,
    EnumerationLimit,
    StandardGenSet,
    center,
    code_type,
    commutator_subgroup,
    generate,
    group_kernel,
    standard_generators,
    torsion,
)

# the second routes are ``z2z4q8.oracles``, which this package does not
# import: ``import z2z4q8.oracles`` loads them
__all__ = [
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

__version__ = "0.1.0"

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
    LiftResult,
    extend,
    generalized_kronecker,
    kronecker,
    lift_and_extend,
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
    NormalizedGenSet,
    Shape,
    classify_shape,
    hadamard_bounds,
    is_hadamard,
    normalize_generators,
)
from .invariants import (
    BoundCheck,
    BoundReport,
    StructureReport,
    binary_kernel,
    check_bounds,
    is_abelian,
    is_linear,
    kernel_dim,
    rank,
    span_group,
    structure_report,
    swapper,
    weight_distribution,
)
from .oracles import is_extended_perfect, is_perfect
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

# the test oracles stay importable as ``z2z4q8.oracles``; of them only the
# perfect-code checks, imported above, are public names
__all__ = [name for name in dir() if not name.startswith("_") and name != "oracles"]

__version__ = "0.1.0"

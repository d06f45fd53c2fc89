"""Weyl groupoids from higher braiding tensors, rank-2 quiddity
combinatorics, and abelian cell complexes with exact integer homology."""

from .cells import BarCell, Chain, JoinCell, boundary, join, shuffle
from .cycles import dcharacter_eval, symmetrized_cycle, theta_lambda
from .errors import (
    AxiomViolation,
    BoundExceeded,
    CellShapeError,
    DepthExceeded,
    InvalidArguments,
    NonPeriodic,
    NotAQuiddityCycle,
    ObjectLimitExceeded,
    OddDegreeError,
    Report,
    SchemaError,
    UndefinedCartanEntry,
    WeylgError,
)
from .groupoid import (
    CartanGraph,
    CartanGraphObject,
    dynkin_diagram,
    generate_cartan_graph,
    reflect,
    validate_axioms,
)
from .groups import AbGroup, GroupElement, parse_group
from .homology import (
    CellComplex,
    boundary_membership,
    check_conjecture_instance,
)
from .lattice import (
    GammaVector,
    SqrtBraidingTensor,
    chi_eval,
    gamma_aggregate,
    load_tensor_json,
)
from .laurent import LaurentPoly, verify_divisibility, verify_recursion
from .rank2 import QuiddityCycle, frieze_rows, quiddity_cycle, triangulate
from .roots import real_roots, validate_root_axioms
from .rosso import (
    GeneralizedCartanMatrix,
    cartan_entry,
    cartan_matrix,
    ef_coeffs,
    rosso_condition,
    rosso_diagnostics,
    rosso_vectors,
)

__version__ = "0.1.0"

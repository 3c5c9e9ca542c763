"""albertkit: exact quadratic forms, quaternion algebras and corestriction
certificates over desk-scale fields, in every characteristic.

The package provides exact base fields (Q, finite fields, rational function
fields) with quadratic etale extensions, quadratic-form machinery with
complete or certified isotropy oracles, the transfer/descent construction,
quaternion algebras with their norm forms, the corestriction of a quaternion
algebra along a quadratic extension together with its explicit Albert form
and Clifford checks, and a harness that checks the equivalence of the three
subalgebra/division conditions on generated instances, emitting
machine-verifiable certificates.
"""

from .errors import (
    AlgebraError,
    BudgetExhausted,
    InternalContradiction,
    InvalidWitness,
    MalformedCertificate,
    NotEtale,
    OracleIncomplete,
    SplitK,
)
from .fields import (
    QQ,
    FiniteField,
    QuadraticFieldExtension,
    RationalField,
    RationalFunctionField,
)
from .etale import EtaleQuadratic, SplitAlgebra, make_etale_quadratic
from .forms import (
    QuadraticForm,
    isometric_embedding,
    isotropic_spanning_set,
    orthogonalize,
    symplectic_pairs,
)
from .isotropy import (
    IsotropyVerdict,
    WittDecomposition,
    bounded_search,
    hasse_minkowski,
    hilbert_symbol,
    isotropy,
    springer_reduce,
    witt_decompose,
    witt_index,
)
from .transfer import DescentResult, descend, remark1_check, transfer
from .quaternion import (
    QuaternionAlgebra,
    embed_quadratic_algebra,
    find_disjoint_quadratic_subalgebra,
    is_split,
    make_quaternion,
    norm_form,
    validate_disjoint_witness,
)
from .corestriction import (
    AlbertData,
    CorestrictionAlgebra,
    TensorSquareAlgebra,
    albert_form,
    build_corestriction,
    cor_is_division,
    f_map_check,
    f_matrix,
    generator_to_isotropic,
    isotropic_to_generator,
    split_projection_iso,
    tensor_product_algebra,
    v_space_basis,
    vs_space,
)
from .clifford import (
    CliffordAlgebra,
    arf_trivial,
    clifford_iso_check,
    even_clifford_binary,
)
from .harness import (
    FAMILIES,
    EquivalenceReport,
    Instance,
    check_equivalence,
    generate_instance,
    verify_certificate,
)

__version__ = "0.1.0"

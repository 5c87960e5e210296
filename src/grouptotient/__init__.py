"""Totients and Gauss sums of finite groups over complete subgroup lattices.

Build finite groups as Cayley tables (classical families or ingested
files), enumerate every subgroup, and compare exact closed forms for the
group totient and its subgroup-sum against brute-force enumeration.
"""

from .catalogue import (
    CatalogueEntry,
    load_catalogue,
    read_cayley_table,
    read_permutation_generators,
    write_cayley_table,
)
from .errors import (
    GroupError,
    IdentityNotZeroError,
    InvalidParameterError,
    LatticeOverflowError,
    MixedPrimesError,
    NotAGroupError,
    NotAPermutationError,
    NotNormalError,
    NotPrimePowerError,
    OrderOverflowError,
    ParseError,
    RangeTooLargeError,
    UnknownSuiteError,
)
from .groups import (
    DEFAULT_MAX_ORDER,
    Group,
    GroupSpec,
    construct,
    direct_product,
    parse_spec,
    validate_table,
)
from .lattice import (
    DEFAULT_MAX_SUBGROUPS,
    Lattice,
    Subgroup,
    all_subgroups,
    complements,
    cyclic_subgroups,
    frattini,
    is_nilpotent,
    is_normal,
    large_abelian_subgroup_witness,
    maximal_subgroups,
    sylow_subgroups,
)
from .numtheory import divisors, euler_phi, factorize, is_prime
from .reports import (
    GaussSummary,
    ScanResult,
    ScanRow,
    SuiteCase,
    SuiteResult,
    canonical_json,
    to_csv,
    write_report,
)
from .totient import (
    abelian_p_group_totient,
    cyclic_totient_sum,
    dihedral_gauss_sum,
    dihedral_totient,
    fixed_point_free_decomposition,
    gauss_sum,
    group_totient,
    semidirect_gauss_sum,
    subgroup_is_cyclic,
    two_group_gauss_sum,
)
from .verify import (
    SCAN_FAMILIES,
    SUITE_IDS,
    abelian_type_specs,
    class_subgroup_closure,
    family_specs,
    inclusion_exclusion_residual,
    pq_group_spec,
    run_scan,
    run_suite,
    summarize,
    summarize_spec,
    verify_classical_gauss,
)

__version__ = "0.1.0"

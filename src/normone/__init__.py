"""Obstruction groups of norm-one tori for finite groups.

Brute-force integer group cohomology of norm-one character lattices and
fast structural evaluators for the same groups, cross-validated against
each other, plus the prime-field representation criteria that decide for
which degrees the obstruction can be nonzero.
"""

from .finab import FinAb
from .groups import (
    FiniteGroup,
    SubgroupHandle,
    abelianization,
    all_subgroups,
    build_group,
    commutator_subgroup,
    complement,
    core,
    cyclic_subgroups,
    double_cosets,
    normalizer_centralizer,
    subgroup_closure,
    sylow_subgroup,
    trivial_subgroup,
)
from .lattices import (
    GLattice,
    induced_perm_lattice,
    j_lattice,
    restrict,
)
from .cohomology import (
    CohomologyGroup,
    ShaGroup,
    h1_character_kernel,
    sha,
    tate_cyclic,
)
from .structure import (
    Classification,
    PPartConditions,
    ShaReport,
    annihilator_bound,
    classify_two_prime_index,
    composite_sha_witness,
    p_part_conditions,
    p_vanishing_certificate,
    sha_bicyclic,
    sha_full,
    sha_p_part,
    sha_prime_index_family,
)
from .reps import (
    DMembership,
    RepTwoDim,
    build_semidirect,
    d_membership,
    exhaustive_scan,
    s_min,
    sylow2_gl2,
    witness_rep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

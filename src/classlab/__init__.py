"""Finite-group class calculus and normalizer-quotient realization.

Permutation groups with deterministic stabilizer chains, normal-subgroup
lattices and quotients, a small expression language for group classes with
dual/iterated-extension operators and closure audits, wreath-product
realization certificates for N(H)/H, and a registered verification suite
runnable from the `classlab` command.

`run_suite` and `CheckResult` are loaded on first use, so that importing the
package (and every CLI command but `selftest`) does not import the suite.
"""

from time import perf_counter as _perf_counter

# The start of the package import; CLI reports give the time from here to the
# start of the command as `timing.import_s`.
_IMPORT_STARTED = _perf_counter()

from .classes import (
    AuditReport,
    ClassEval,
    ClassExpr,
    audit_property,
    classify,
    parse_class_expr,
)
from .config import Caps, DEFAULT_CAPS, caps_from_env
from .errors import (
    CapExceeded,
    ClasslabError,
    DegreeMismatch,
    FalsificationAlarm,
    InvalidInput,
    ParseError,
    SubgroupLimitExceeded,
)
from .perm import (
    GroupHom,
    PermGroup,
    Permutation,
    StabChain,
    coset_action,
    direct_power,
    generate,
    identity_hom,
    point_stabilizer,
    regular_representation,
    wreath_by_cosets,
)
from .realization import (
    BruteHit,
    RealizationCertificate,
    alternating_embedding,
    brute_normalizer,
    brute_search,
    build_realization,
    diagonal_subgroup,
    embedding_into,
    factor_permutation_check,
    is_primitive,
    maximal_selfnormalizing,
    realize,
    split_check,
)
from .structure import (
    IsoCertificate,
    NormalLattice,
    baer_radical,
    center,
    conjugacy_classes,
    derived_series,
    fingerprint,
    has_prime_order_quotient,
    is_abelian,
    is_cyclic,
    is_nilpotent,
    is_simple,
    is_solvable,
    isomorphic,
    normal_subgroups,
    quotient,
    radical_factorization,
    simple_quotients,
    subgroup_classes,
    subgroups,
)
from .universe import (
    Catalog,
    alternating,
    build_universe,
    cyclic,
    dihedral,
    klein_four,
    load_catalog,
    parse_group_spec,
    quaternion,
    recognize_name,
    save_catalog,
    special_linear,
    symmetric,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in ("CheckResult", "run_suite"):
        from . import suite
        return getattr(suite, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AuditReport", "ClassEval", "ClassExpr", "audit_property", "classify",
    "parse_class_expr",
    "Caps", "DEFAULT_CAPS", "caps_from_env",
    "CapExceeded", "ClasslabError", "DegreeMismatch", "FalsificationAlarm",
    "InvalidInput", "ParseError", "SubgroupLimitExceeded",
    "GroupHom", "PermGroup", "Permutation", "StabChain", "coset_action",
    "direct_power", "generate", "identity_hom", "point_stabilizer",
    "regular_representation", "wreath_by_cosets",
    "BruteHit", "RealizationCertificate", "alternating_embedding",
    "brute_normalizer", "brute_search", "build_realization",
    "diagonal_subgroup", "embedding_into", "factor_permutation_check",
    "is_primitive", "maximal_selfnormalizing", "realize", "split_check",
    "IsoCertificate", "NormalLattice", "baer_radical", "center",
    "conjugacy_classes", "derived_series", "fingerprint",
    "has_prime_order_quotient", "is_abelian", "is_cyclic", "is_nilpotent",
    "is_simple", "is_solvable", "isomorphic", "normal_subgroups", "quotient",
    "radical_factorization", "simple_quotients", "subgroup_classes", "subgroups",
    "CheckResult", "run_suite",
    "Catalog", "alternating", "build_universe", "cyclic", "dihedral",
    "klein_four", "load_catalog", "parse_group_spec", "quaternion",
    "recognize_name", "save_catalog", "special_linear", "symmetric",
    "__version__",
]

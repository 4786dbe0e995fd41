"""Coherence-based sparsity uncertainty bounds over paired vector/functional systems."""

__version__ = "0.1.0"

from .admissible import (
    AdmissibleSpace,
    admissible_space,
    generate,
    sample_admissible,
)
from .bounds import (
    BoundCertificate,
    ds_product,
    eb_bound,
    exhaustive_verify,
    fkdb_rhs,
    fskpb_rhs,
    per_index_slack,
    verify_fkdb,
    verify_fskpb,
)
from .coherence import (
    CoherenceProfile,
    coherence_profile,
    cross_coherence,
    gram,
    sub_coherence,
)
from .dft import dft_matrix, forward
from .oracle import TightnessReport, min_sparsity_product
from .sparsity import (
    ConcentrationWitness,
    best_set,
    concentration_epsilon,
    l0,
    l1,
    support,
)
from .systems import (
    BiSystem,
    PairedSystem,
    ValidationReport,
    analysis,
    from_hilbert_vectors,
    identity_system,
    synthesis,
    validate_pairing,
)

"""Uncertainty bounds for finite-dimensional observables.

Evaluates the product and sum uncertainty relations for Hermitian
observables in pure or mixed states, decides when each bound is saturated
through exact structural characterizations, and constructs orthonormal
state pairs that provably close the sum and product bounds.
"""

from types import ModuleType as _ModuleType

from .errors import (
    BoundViolation,
    CorollaryViolation,
    DimensionMismatch,
    HypothesisViolated,
    InvalidInput,
    NonHermitianInput,
    NonRealExpectation,
    NotOrthogonal,
    NotOrthonormal,
    NotPositiveSemidefinite,
    QuboundsError,
    RankUnachieved,
    RIndependenceViolation,
    ZeroDeviation,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    complex_dependence,
    hermitian_eig,
    phase_dependence,
    psd_power,
    unitary_completion,
)
from .relations import (
    BoundReport,
    ChainReport,
    MP3Report,
    MP6Reports,
    MPFrame,
    MuChoice,
    choose_mu,
    mp3,
    mp6,
    mp_chain,
    mp_frame,
    mu_ratio,
    robertson,
    schrodinger,
)
from .reporting import ARTIFACT_VERSION, RunManifest, SuiteReport, run_verification_suite
from .sampling import (
    SampleConfig,
    bloch_state,
    haar_unitary,
    random_density,
    random_hermitian,
    random_pure_state,
    trial_rng,
)
from .saturation import (
    CONSTRUCTION_TOL,
    CertificateKind,
    ChainSaturation,
    ConstructedPair,
    EqualityCheck,
    SaturationCertificate,
    ZeroProductCheck,
    ZeroWitness,
    construct_case1,
    construct_case2,
    construct_w_mp6,
    mp3_saturation,
    mp6_saturation,
    mp_chain_saturation,
    qubit_commutation_witness,
    robertson_saturation_mixed,
    robertson_saturation_pure,
    schrodinger_saturation,
    zero_product_characterization,
    zero_sum_characterization,
)
from .states import (
    DensityMatrix,
    Observable,
    PairMoments,
    PureState,
    QuantumState,
    expectation,
    pair_moments,
    stddev,
)

__version__ = ARTIFACT_VERSION

# The public names are the ones imported above; the submodules are not among them.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))

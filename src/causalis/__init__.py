"""Numerical toolkit for the process-matrix formalism.

Construct and validate process matrices, evaluate the generalized Born rule,
build and analyze the quantum switch, certify causal (non)separability by
convex feasibility, and compute causal-inequality bounds in closed form.
"""
import os as _os

# BLAS thread caps must land before numpy spins up its pools.
_threads = _os.environ.get("CAUSALIS_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

from .tensor_core import (
    HermitianOperator,
    LabeledSpace,
    Operator,
    PureVector,
    SpaceProduct,
    choi_of_kraus,
    choi_vector,
    depolarize,
    hermitian_basis,
    identity,
    partial_trace,
    random_density,
    random_isometry,
    random_kraus,
    random_unitary,
    tensor,
    tensor_vectors,
)
from .process import (
    OrderedBatch,
    Party,
    ProcessMatrix,
    ProcessVector,
    interference_decomposition,
    make_ordered_process,
    make_quantum_switch,
    parties_space,
    random_ordered_batch,
    random_ordered_process,
    reduce_to_state,
    switch_parties,
    switch_spaces,
    validate_bipartite_closed_form,
    validate_process,
    validity_report,
)
from .instruments import (
    Instrument,
    ProbabilityTable,
    born,
    circuit_oracle,
    random_instrument,
    random_instrument_kraus,
    standard_instruments,
    switch_discrimination_demo,
)
from .causality import (
    CausalGame,
    CausalityVerdict,
    DeterministicStrategy,
    InequalityScore,
    causal_bound,
    enumerate_strategies,
    gyni_game,
    is_causal,
    lgyni_game,
    ocb_game,
    score_inequality,
)
from .separability import (
    FeasibilityTrace,
    OrderCone,
    SeparabilityCertificate,
    check_separability,
    extract_witness,
    order_cone_residual,
)
from .fixtures import ocb_instruments, ocb_parties, ocb_process
from . import io

__all__ = [
    "LabeledSpace", "SpaceProduct", "Operator", "HermitianOperator", "PureVector",
    "tensor", "tensor_vectors", "identity", "partial_trace", "depolarize",
    "choi_of_kraus", "choi_vector", "hermitian_basis",
    "random_density", "random_isometry", "random_unitary", "random_kraus",
    "Party", "ProcessMatrix", "ProcessVector", "parties_space",
    "validate_process", "validity_report", "validate_bipartite_closed_form",
    "make_ordered_process", "switch_spaces", "switch_parties",
    "make_quantum_switch", "interference_decomposition", "reduce_to_state",
    "random_ordered_process", "random_ordered_batch", "OrderedBatch",
    "Instrument", "ProbabilityTable", "standard_instruments",
    "random_instrument", "random_instrument_kraus", "born", "circuit_oracle",
    "switch_discrimination_demo",
    "CausalGame", "DeterministicStrategy", "CausalityVerdict", "InequalityScore",
    "enumerate_strategies", "causal_bound", "is_causal", "score_inequality",
    "gyni_game", "lgyni_game", "ocb_game",
    "OrderCone", "FeasibilityTrace", "SeparabilityCertificate",
    "order_cone_residual", "check_separability", "extract_witness",
    "ocb_process", "ocb_instruments", "ocb_parties",
    "io",
]

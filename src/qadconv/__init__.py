"""Statevector toolkit for analog <-> digital amplitude conversion circuits."""

from .errors import (
    CodecRangeError,
    ConfigError,
    DegenerateBranchError,
    DimensionError,
    NormalizationError,
    OracleDomainError,
    QadconvError,
    RegisterError,
    ResourceLimitError,
    UnitaryError,
    VerificationError,
    ZeroSuccessError,
)
from .fixedpoint import (
    ACTIVATIONS,
    FixedPointCodec,
    FunctionOracle,
    activation_oracle,
)
from .nonlinear import (
    AnsatzCircuit,
    NonlinearOutcome,
    nonlinear_transform,
    perceptron_run,
    swap_test_readout,
    train_demo,
)
from .prep import PrepTree, build_tree, load_data, synthesize_ua
from .qadc import QadcResult, abs_qadc, imag_qadc, real_qadc, run_qadc
from .qdac import QdacOutcome, make_digital_state, qdac_run

__all__ = [
    "ACTIVATIONS",
    "AnsatzCircuit",
    "CodecRangeError",
    "ConfigError",
    "DegenerateBranchError",
    "DimensionError",
    "FixedPointCodec",
    "FunctionOracle",
    "NonlinearOutcome",
    "NormalizationError",
    "OracleDomainError",
    "PrepTree",
    "QadcResult",
    "QadconvError",
    "QdacOutcome",
    "RegisterError",
    "ResourceLimitError",
    "UnitaryError",
    "VerificationError",
    "ZeroSuccessError",
    "abs_qadc",
    "activation_oracle",
    "build_tree",
    "imag_qadc",
    "load_data",
    "make_digital_state",
    "nonlinear_transform",
    "perceptron_run",
    "qdac_run",
    "real_qadc",
    "run_qadc",
    "swap_test_readout",
    "synthesize_ua",
    "train_demo",
]

__version__ = "0.1.0"

"""Single-pass lifelong-learning training engine and benchmark harness.

The package re-exports the README's Library tour, ``multitask_train`` and
the ``LlbError`` family; every other name is imported from its module.
"""

from .errors import (
    ConfigurationError,
    IdxFormatError,
    IncompleteLogError,
    LlbError,
    LogConflictError,
    MemoryStateError,
    MissingHeadError,
    NumericError,
    ProtocolError,
)
from .learners import make_learner, multitask_train
from .metrics import avg_accuracy, forgetting, lca
from .nn import init_model
from .protocol import HyperParams, build_stream, run_single_pass
from .streams import split_cv_ev

__version__ = "0.1.0"

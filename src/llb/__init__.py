"""Single-pass lifelong-learning training engine and benchmark harness."""

from .embedding import embed_task, je_forward, je_loss_and_grad, zero_shot_eval
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
from .learners import (
    LEARNER_NAMES,
    LearnerState,
    agem_project,
    agem_step,
    ewc_consolidate,
    ewc_step,
    gem_step,
    make_learner,
    multitask_train,
    sgem_step,
    vanilla_step,
)
from .memory import EpisodicMemory, per_task_batches, sample_ref_batch, update_eps_mem
from .metrics import (
    AccuracyTensor,
    MetricsReport,
    avg_accuracy,
    forgetting,
    lca,
    record,
    worst_case_forgetting,
    zero_shot_series,
)
from .nn import (
    Architecture,
    Batch,
    Model,
    apply_update,
    forward,
    init_model,
    loss_and_grad,
    mlp,
)
from .protocol import (
    ExperimentConfig,
    HyperParams,
    build_stream,
    cross_validate,
    eval_all,
    run_experiment,
    run_seed,
    run_single_pass,
)
from .qp import DualProblem, DualSolution, reconstruct, solve_nonneg_qp
from .streams import (
    Continuum,
    Rows,
    TaskDataset,
    load_mnist_idx,
    make_permuted_stream,
    make_synthetic_split_stream,
    minibatches,
    split_cv_ev,
    synthetic_mnist_base,
)

__version__ = "0.1.0"

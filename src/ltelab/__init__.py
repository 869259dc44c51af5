"""ltelab: parallel low-rank adapter training with periodic merging.

A small numpy laboratory for training linear networks through low-rank
adapter heads: single-head and joint multi-head training, the bi-level
local-step/merge loop with averaged or exactly-corrected merging, the
measurement toolkit around it (effective rank, subspace alignment,
trajectory deviation, the effective-update rule), and the closed-form
communication/memory cost model for the distributed setting it emulates.
"""

__version__ = "0.1.0"

from .analysis import (
    AlignmentReport,
    DeviationTrace,
    EffectiveUpdateReport,
    RankTrace,
    effective_gradient,
    effective_rank,
    grassman_distance,
    head_alignment,
    trajectory_deviation,
    update_rank_trace,
    verify_effective_update,
)
from .costmodel import CostInputs, CostReport, cost_report
from .data import LeastSquaresTask, gen_least_squares, sample_batch
from .layers import LayerGradients, LoraHead, LoraLinear, split_product
from .lte import (
    ArchSpec,
    ConfigError,
    DatasetSpec,
    MergePolicy,
    RunConfig,
    RunDiverged,
    RunResult,
    Snapshot,
    UpdateRecord,
    WorkerState,
    config_from_dict,
    local_step,
    merge,
    run,
    run_full,
    run_lte,
    run_mhlora,
)
from .network import Batch, Mode, Network, effective_weight, fd_check, forward, loss_and_grad
from .numerics import (
    InitScheme,
    Matrix,
    RandomSource,
    init_matrix,
    load_matrix_csv,
    save_matrix_csv,
    svd,
)
from .optim import AdamState, OptimConfig, adamw_step, sgd_step

__all__ = [name for name in dir() if not name.startswith("_")]

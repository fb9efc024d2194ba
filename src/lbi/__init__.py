"""Pretraining with learned per-example ignoring weights,
proximity-regularized finetuning, and validation-driven weight updates,
plus the datasets, gradient checks, and experiment tooling around the
method."""

__version__ = "0.1.0"

from .datasets import (  # noqa: F401
    CsvSchema,
    DatasetBundle,
    Split,
    SynthSpec,
    generate,
    load_csv,
    save_csv,
    split_ratio,
)
from .engine import (  # noqa: F401
    IgnoreSet,
    LbiConfig,
    LbiState,
    TraceRow,
    init_state,
    run,
    run_stack,
)
from .errors import ConfigError, LbiError, NumericError, ParseError  # noqa: F401
from .experiments import (  # noqa: F401
    ABLATION_IDS,
    ablation_config,
    corrupted_recovery_auc,
    run_matrix,
    sweep,
)
from .gradcheck import make_check_instance, verify_hypergrads  # noqa: F401
from .model import Arch, GradBlock, ModelParams  # noqa: F401

"""ToolSelect: a query-conditioned router that picks which frozen specialist
tool an agent should invoke, trained with a cost-sensitive surrogate over an
attentive-neural-process scorer."""

__version__ = "0.1.0"

from .anp_selector import SelectorConfig, SelectorModel, init_params
from .baselines import (
    GlobalBestRouter,
    KNNRouter,
    MLPIndexRouter,
    OracleRouter,
    RandomRouter,
    ToolSelectRouter,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .domain import (
    AlignedPrediction,
    CanonicalLabelSpace,
    GroundTruth,
    LabeledQuery,
    Panel,
    Query,
    TaskFamily,
    Tool,
)
from .errors import (
    CheckpointError,
    ConfigError,
    EmptyReferenceSetError,
    InvalidPredictionError,
    NoValidCandidateError,
    NoValidPanelError,
    NonFiniteScoreError,
    ShapeMismatchError,
    ToolSelectError,
)
from .evalharness import compare, evaluate, gap_closure
from .objective import ObjectiveConfig, batch_objective
from .simworld import WorldConfig, generate_world, regenerate_test_tools
from .trainer import TrainConfig, build_model, default_selector_config, fit

__all__ = [
    "__version__",
    "SelectorConfig", "SelectorModel", "init_params",
    "GlobalBestRouter", "KNNRouter", "MLPIndexRouter", "OracleRouter",
    "RandomRouter", "ToolSelectRouter",
    "load_checkpoint", "save_checkpoint",
    "AlignedPrediction", "CanonicalLabelSpace", "GroundTruth", "LabeledQuery",
    "Panel", "Query", "TaskFamily", "Tool",
    "CheckpointError", "ConfigError", "EmptyReferenceSetError",
    "InvalidPredictionError", "NoValidCandidateError", "NoValidPanelError",
    "NonFiniteScoreError",
    "ShapeMismatchError", "ToolSelectError",
    "compare", "evaluate", "gap_closure",
    "ObjectiveConfig", "batch_objective",
    "WorldConfig", "generate_world", "regenerate_test_tools",
    "TrainConfig", "build_model", "default_selector_config", "fit",
]

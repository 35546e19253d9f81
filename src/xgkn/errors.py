"""Exception types shared across the package."""


class XgknError(Exception):
    """Base class for all package errors."""


class InvalidNodeError(XgknError, ValueError):
    """A node id is not present in the referenced graph."""


class EmptySelectionError(XgknError, ValueError):
    """A node selection that must be nonempty is empty."""


class IncompatibleSetsError(XgknError, ValueError):
    """Two node sets reference different root graphs."""


class FeatureDimError(XgknError, ValueError):
    """Feature matrices disagree on dimensionality."""


class FeatureRowError(XgknError, ValueError):
    """Node feature rows are not all one-hot."""


class ShapeError(XgknError, ValueError):
    """Tensor shapes are incompatible with the requested operation."""


class NumericError(XgknError, ArithmeticError):
    """A computation produced non-finite values."""


class OptimizerStateError(XgknError, RuntimeError):
    """Optimizer state is inconsistent with the parameters (e.g. missing grads)."""


class StatisticsError(XgknError, ValueError):
    """A statistical routine received degenerate input."""


class EmptyInputError(XgknError, ValueError):
    """An operation received an empty input where values are required."""


class DatasetFormatError(XgknError, ValueError):
    """A dataset file is malformed."""


class SplitError(XgknError, ValueError):
    """A requested split cannot be constructed."""


class TrainingDivergedError(XgknError, RuntimeError):
    """Training loss became non-finite."""

    def __init__(self, epoch, history=None):
        super().__init__(f"training loss became non-finite at epoch {epoch}")
        self.epoch = epoch
        self.history = history or []


class CapacityError(XgknError, ValueError):
    """Input exceeds the size cap of an exact algorithm."""


class MissingGroundTruthError(XgknError, ValueError):
    """A ground-truth-based metric was requested without ground truth."""


class UndefinedMetricError(XgknError, ValueError):
    """Metric is undefined for the given configuration."""


class AlignmentError(XgknError, ValueError):
    """Artifacts from different runs or configs were mixed."""


class ArtifactError(XgknError, ValueError):
    """An artifact of an earlier stage is not JSON (a truncated write, say)."""

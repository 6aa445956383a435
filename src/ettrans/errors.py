"""Shared exception types. Harness exit codes map onto these."""


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class AlignmentError(ValueError):
    """Durations, frame rates or window geometry do not line up."""


class UpsamplingUnsupportedError(AlignmentError):
    """Requested a target FPS above the source FPS; only subsampling is supported."""


class ClipTooShortError(AlignmentError):
    """Window is longer than the clip it should cover."""


class ContractViolationError(RuntimeError):
    """A frozen-model contract was broken: an unfrozen model at extraction, or
    an optimizer step on a frozen parameter set."""


class GenerationError(ValueError):
    """Synthetic dataset specs are inconsistent or produced invalid data."""


class UndefinedMetricError(ValueError):
    """Metric has no defined value for this input (e.g. AP with zero positives)."""


class ConfigError(ValueError):
    """Experiment config failed to parse or validate. CLI exit code 2."""


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training. CLI exit code 3."""


class CacheFormatError(ValueError):
    """Feature cache file is corrupt or truncated; nothing was loaded."""


class CacheVersionError(CacheFormatError):
    """Feature cache file has an unsupported format version."""

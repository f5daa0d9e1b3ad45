"""Exception types shared across the package."""


class DimensionError(ValueError):
    """An array argument has the wrong length or a non-power-of-two size."""


class ParameterError(ValueError):
    """A scalar argument is outside its documented domain."""


class ResourceLimitError(RuntimeError):
    """An exact enumeration would exceed the configured variable cap."""


class ExternalSolverError(RuntimeError):
    """An external solver is missing, failed, or produced unparseable output."""

    def __init__(self, message, raw_output=None):
        super().__init__(message)
        self.raw_output = raw_output


class SolverIntegrityError(RuntimeError):
    """An external solver's reported optimum disagrees with re-evaluation."""


class PipelineStepError(RuntimeError):
    """A pipeline stage failed; ``step`` names the stage."""

    def __init__(self, step, cause):
        super().__init__(f"pipeline step '{step}' failed: {cause}")
        self.step = step
        self.cause = cause

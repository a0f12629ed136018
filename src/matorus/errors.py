"""Exception hierarchy. Every error carries a stable machine-readable ``code``."""


class MatorusError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"

    def payload(self) -> dict:
        """Machine-readable form used by the CLI error output."""
        return {"type": self.code, "message": str(self)}


class ConfigError(MatorusError):
    code = "config_error"


class GridMismatchError(MatorusError):
    code = "grid_mismatch"


class FieldFormatError(MatorusError):
    """Field-file header or payload does not match expectations."""

    code = "field_format"

    def __init__(self, message: str, expected=None, found=None):
        super().__init__(message)
        self.expected = expected
        self.found = found

    def payload(self) -> dict:
        out = super().payload()
        if self.expected is not None:
            out["expected"] = self.expected
        if self.found is not None:
            out["found"] = self.found
        return out


class ExpressionError(MatorusError):
    code = "expression_error"


class NotPositiveError(MatorusError):
    """A matrix field that must be positive definite is not."""

    code = "not_positive"

    def __init__(self, message: str, worst_point=None, worst_eigenvalue=None):
        super().__init__(message)
        self.worst_point = worst_point
        self.worst_eigenvalue = worst_eigenvalue

    def payload(self) -> dict:
        out = super().payload()
        if self.worst_point is not None:
            out["worst_point"] = list(self.worst_point)
        if self.worst_eigenvalue is not None:
            out["worst_eigenvalue"] = self.worst_eigenvalue
        return out


class GauduchonKernelError(MatorusError):
    """The conformal-weight eigenvector is not positive (grid too coarse)."""

    code = "gauduchon_kernel_not_positive"


class LinearSolverStalled(MatorusError):
    code = "linear_solver_stalled"


class MaxItersExceeded(MatorusError):
    code = "max_iters_exceeded"


class PositivityLost(MatorusError):
    code = "positivity_lost"


class ContinuationStalled(MatorusError):
    """The continuation step fell below its minimum; ``rejected`` lists the
    (t, error code) of every failed attempt, the last one included."""

    code = "continuation_stalled"

    def __init__(self, message: str, rejected=()):
        super().__init__(message)
        self.rejected = list(rejected)

    def payload(self) -> dict:
        out = super().payload()
        out["rejected_steps"] = [[t, code] for t, code in self.rejected]
        return out


class NotClosedError(MatorusError):
    code = "not_closed"


class ConstraintViolated(MatorusError):
    code = "constraint_violated"


class GaugeViolated(MatorusError):
    code = "gauge_violated"

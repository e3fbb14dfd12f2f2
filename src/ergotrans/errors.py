"""Exception types shared across the package."""


class SpecValidationError(ValueError):
    """Raised when a problem document or an operation input fails validation."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative solver exhausts its iteration budget.

    Attributes
    ----------
    residual : float
        Last observed residual before giving up.
    iterations : int
        Number of iterations performed.
    """

    def __init__(self, message, residual=float("nan"), iterations=0):
        super().__init__(message)
        self.residual = float(residual)
        self.iterations = int(iterations)


class CertificateError(RuntimeError):
    """Raised when a solve finishes but its optimality certificate fails.

    The partially certified result, if any, is attached so callers can
    still report its residuals.
    """

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution

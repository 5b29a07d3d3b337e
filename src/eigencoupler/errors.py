"""Exception types shared across the package."""


class EigencouplerError(Exception):
    """Base class for all package-specific failures."""


class DegenerateCriticalPointError(EigencouplerError):
    """A critical point of the potential has (numerically) vanishing curvature."""


class GrowthAssumptionError(EigencouplerError):
    """The potential violates the growth conditions required for coupling runs."""


class GridError(EigencouplerError):
    """Grid does not satisfy the truncation/resolution requirements."""


class EigenSolveError(EigencouplerError):
    """Tridiagonal eigensolver failed to converge."""


class TruncationError(EigencouplerError):
    """Spectral decomposition is inconsistent with a zero leading eigenvalue."""


class UniformizationError(EigencouplerError):
    """The uniformization series did not reach its tail tolerance within the
    Poisson right point."""


class ChainSynthesisError(EigencouplerError):
    """Inverse eigenvalue synthesis of the chain generator failed."""


class CouplingError(EigencouplerError):
    """Coupling construction violated a structural requirement."""


class BlowUpError(EigencouplerError):
    """A simulated path left the safety bound (time step too large)."""


class UnreachableTargetError(EigencouplerError):
    """Mean exit time requested for a target that cannot be reached."""


class ConfigError(EigencouplerError):
    """Experiment configuration is malformed."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(self.problems))

"""Exception hierarchy with stable machine-readable error codes."""


class PolylatError(Exception):
    """Base class; `code` is stable across releases and surfaced by the CLI."""

    code = "POLYLAT_ERROR"


class ConfigError(PolylatError):
    code = "CONFIG_ERROR"


class ConfigNotFound(ConfigError):
    code = "CONFIG_NOT_FOUND"


class SingularPolarization(PolylatError):
    code = "SINGULAR_POLARIZATION"


class ConventionViolation(PolylatError):
    code = "CONVENTION_VIOLATION"


class NotInDualLattice(PolylatError):
    code = "NOT_IN_DUAL_LATTICE"


class ShellTooLarge(PolylatError):
    code = "SHELL_TOO_LARGE"


class ArityMismatch(PolylatError):
    code = "ARITY_MISMATCH"


class NotPositiveDefinite(PolylatError):
    code = "NOT_POSITIVE_DEFINITE"


class BudgetExceeded(PolylatError):
    code = "BUDGET_EXCEEDED"


class NotAbsolutelyConvergent(PolylatError):
    code = "NOT_ABSOLUTELY_CONVERGENT"


class ZeroSectionSingularity(PolylatError):
    code = "ZERO_SECTION_SINGULARITY"


class PoleAtS(PolylatError):
    code = "POLE_AT_S"


class GammaOverflow(PolylatError):
    code = "GAMMA_OVERFLOW"


class GridTouchesZeroSection(PolylatError):
    code = "GRID_TOUCHES_ZERO_SECTION"


class TruncationOverflow(PolylatError):
    code = "TRUNCATION_OVERFLOW"


class DimensionOverflow(PolylatError):
    code = "DIMENSION_OVERFLOW"


class OutOfRange(PolylatError):
    code = "OUT_OF_RANGE"


class OriginSingularity(PolylatError):
    code = "ORIGIN_SINGULARITY"


class QuadratureBudget(PolylatError):
    code = "QUADRATURE_BUDGET"


class QuadratureUnstable(PolylatError):
    code = "QUADRATURE_UNSTABLE"

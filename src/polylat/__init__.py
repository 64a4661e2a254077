"""polylat: lattice theta/zeta engines and exact algebra for polarized tori."""

__version__ = "0.1.0"

__all__ = [
    "DualLattice",
    "HodgeVector",
    "PolarizedAbelianData",
    "SumLattice",
    "character",
    "dual_lattice",
    "enumerate_shell",
    "hodge_split",
    "q_form",
    "__version__",
]


def __getattr__(name):
    """The names of __all__ from `lattice`, imported on first access so that
    importing a submodule (the CLI, say) does not import numpy."""
    if name in __all__:
        from . import lattice

        return getattr(lattice, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Pathway distributions, Mittag-Leffler functions, Mellin-convolution
integrals, a median-centered design solver, and golden-angle spiral patterns.

Every public name loads its module on first access (PEP 562), so
``import pathway_toolkit`` loads no numerical module, and scipy loads only
with the first name that needs it.
"""

import importlib

__version__ = "0.1.0"

# each module's public names; ``pathway_toolkit.<name>`` imports the module
_EXPORTS = {
    "designstats": (
        "CenteredSystem", "IncidenceSystem", "build_incidence", "center_by_medians",
        "chisquared_form_check", "first_order_approx", "neumann_solve", "normality_trend",
        "sample_correlation",
    ),
    "errors": ("ConvergenceError", "DomainError"),
    "melconv": (
        "MomentDensity", "ProductSpec", "builtin_density", "kratzel_g1", "kratzel_g2",
        "mellin_invert", "product_moment_density", "random_volume_dist", "reaction_rate",
        "structure_moment",
    ),
    "pathway": (
        "DensityFn", "PathwayParams", "havrda_charvat_entropy", "mathai_entropy",
        "pathway_cdf", "pathway_pdf", "pathway_sample", "pathway_support", "shannon_entropy",
        "tsallis_g",
    ),
    "phyllotaxis": ("SpiralConfig", "emit_svg", "generate_points", "golden_angle",
                    "parastichy_pair"),
    "specfun": ("MLParams", "Partition", "gen_pochhammer", "log_gamma", "matrix_gamma",
                "mittag_leffler", "pochhammer"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule not yet imported
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

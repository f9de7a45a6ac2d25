"""egqft: symbolic + numeric workbench for causal perturbation theory.

Layers: exact field algebra (symbolic_fields), model definitions
(model_registry), power counting (power_counting), Wick/pairing
combinatorics (wick_pairing), exact two-point keys (wightman), two-point
numerics (propagators_kinematics), dispersion splitting (causal_splitting),
adiabatic limits (adiabatic_limits), and the CLI (cli).

The exact half (exact, symbolic_fields, model_registry, power_counting,
wick_pairing, wightman) imports neither numpy nor scipy.  The names below
resolve on first access (PEP 562), so `import egqft` loads no module and
each name loads only its own.
"""

import importlib

__version__ = "0.1.0"

# module -> the names it exports from the package
_EXPORTS = {
    "exact": ("QRat",),
    "symbolic_fields": (
        "FieldTable",
        "Generator",
        "Polynomial",
        "QuantumNumbers",
        "SuperQuadriIndex",
        "adjoint",
        "canonical_dim",
        "derive",
        "permutation_sign",
        "subpolynomials",
    ),
    "model_registry": ("ModelSpec", "ModelVerdict", "builtin", "parse_model_spec", "validate"),
    "power_counting": (
        "VANISHING_SECTOR",
        "IrIndex",
        "SList",
        "classify",
        "der",
        "ext",
        "ir_index_product",
        "ir_index_split",
        "omega_general",
        "omega_massless",
        "sd_bound",
    ),
    "wick_pairing": (
        "OpProductExpansion",
        "PairingTerm",
        "WickTerm",
        "complete_pairings",
        "expand_aT",
        "expand_adv",
        "expand_dif",
        "expand_dif_commutator",
        "expand_ret",
        "isserlis_oracle",
        "momentum_support_vanishes",
        "wick_expand",
    ),
    "wightman": ("TwoPointKey", "gamma_trace", "two_point"),
    "propagators_kinematics": (
        "MassShellMeasure",
        "feynman_propagator",
        "riesz_check",
        "riesz_s",
        "two_body_phase_space",
    ),
    "causal_splitting": (
        "FreedomBasis",
        "SelfEnergy",
        "SpectralDensity",
        "bubble_density",
        "central_normalize",
        "dispersion_eval",
        "freedom_basis",
        "scaling_degree_estimate",
    ),
    "adiabatic_limits": (
        "LimitReport",
        "ScaledTestFamily",
        "SplittingTheta",
        "appendix_c_demo",
        "cone_contains",
        "gamma_cone_member",
        "gl_vs_eg_second_order",
        "lemma51_check",
        "lojasiewicz_value",
        "theta_eval",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))

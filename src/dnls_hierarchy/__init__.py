"""Exact derivation, gauge transformation and pseudospectral simulation of
the dNLS hierarchy.

Layers:
  :mod:`.algebra`    exact differential polynomial ring, Euler operator, exact antiderivatives
  :mod:`.hierarchy`  Y_n recursion, Hamiltonians, hierarchy equations, bad cubics
  :mod:`.gauge`      phase time derivative, twisted substitution, gauged equations
  :mod:`.spectral`   periodic pseudospectral solver and conserved-quantity monitors
  :mod:`.analysis`   discrete norms, numeric gauge maps, ill-posedness experiments
  :mod:`.reference`  curated coefficient tables and golden comparisons
  :mod:`.cli`        command-line front end (``dnls-hierarchy``)
"""

from .algebra import (
    DiffPoly,
    GaussianRational,
    antiderivative,
    parse_poly,
    poly_to_latex,
    serialize_poly,
    variational_derivative,
)
from .hierarchy import (
    Equation,
    build_hierarchy_equation,
    check_Y_properties,
    compute_Y,
    extract_bad_cubics,
    predicted_bad_cubic_coefficient,
)
from .gauge import (
    GaugeDerivation,
    derive_gauged,
    is_gauged_form,
    phase_time_derivative,
    twist_substitute,
)
from .spectral import (
    Field,
    Grid,
    SimConfig,
    compile_evaluator,
    linear_propagate,
    plane_wave_reference,
    simulate,
)
from .analysis import (
    NormSpec,
    PacketSpec,
    gauge_apply_numeric,
    growth_exponent_fit,
    hat_norm,
    modulation_norm,
    packet_datum,
    picard3,
    resonance_ratio_stats,
)

__version__ = "0.1.0"

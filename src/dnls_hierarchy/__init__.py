"""Exact derivation, gauge transformation and pseudospectral simulation of
the dNLS hierarchy.  Import names from the layer modules below.

Layers:
  :mod:`.algebra`    exact differential polynomial ring, Euler operator, exact antiderivatives
  :mod:`.hierarchy`  Y_n recursion, Hamiltonians, hierarchy equations, bad cubics
  :mod:`.gauge`      phase time derivative, twisted substitution, gauged equations
  :mod:`.spectral`   periodic pseudospectral solver and conserved-quantity monitors
  :mod:`.analysis`   discrete norms, numeric gauge maps, ill-posedness experiments
  :mod:`.reference`  curated coefficient tables and golden comparisons
  :mod:`.cli`        command-line front end (``dnls-hierarchy``)
"""

__version__ = "0.1.0"

"""Rarefaction-wave hydrodynamic limit toolkit.

Pieces, roughly in dependency order:

* :mod:`rarewave.euler` -- ideal-gas relations, the 3-rarefaction curve and
  the self-similar Riemann fan.
* :mod:`rarewave.burgers` -- smooth approximate waves built from the Burgers
  equation by characteristics, with decay and gap reports.
* :mod:`rarewave.velocity` -- truncated velocity lattice, Maxwellians,
  moments, the macro basis and projections.
* :mod:`rarewave.collision` -- the quadratic collision operator in
  divergence form, its linearization around local Maxwellians and the
  constrained solver on the microscopic subspace.
* :mod:`rarewave.transport` -- Burnett preimages of the heat and shear
  sources, the viscosity and heat-conductivity table, and the
  wave-gradient correction field.
"""

__version__ = "0.1.0"

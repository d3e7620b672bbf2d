"""Numerical conformal geometry on asymptotically flat charts.

The package evaluates Weyl connections, weighted spinor operators, the
two conformal Lichnerowicz identities, and the mass of asymptotically
flat Weyl structures on analytically specified metrics, using truncated
Taylor (jet) arithmetic so that every derivative is exact to machine
precision.

Layering (each module uses only the ones before it):

``exprdsl``  expression language: parser, lowering to programs, evaluator,
             program transforms (forward-mode derivative, pullback)
``jets``     dense multivariate jet arithmetic, orders 1..3
``jetlinalg`` matrix helpers over jets (inverse, determinant, sqrt)
``chart``    asymptotically flat charts, their validation and derived
             charts, and the spinor field programs of a config
``curvature`` Christoffel symbols, curvature tensors, Laplacians
``weyl``     Weyl connections and the conformal scalar curvature
``clifford`` Clifford algebra representations
``spinor``   weighted spinor calculus and the Lichnerowicz residuals
``mass``     sphere quadrature, boundary fluxes, masses
``config``   JSON configuration documents and report serialization
``suites``   seeded identity/law batteries shared by the CLI and tests
``cli``      the ``confmass`` command-line tool
``__main__`` the process entry: freezes the import-time heap, runs ``cli``

Import names from their submodules (``from confmass.mass import
riemannian_mass``); the package re-exports none.  ``confmass.cli`` with
``config.load_config`` loads ``config``, ``chart``, ``exprdsl``, ``jets``
and ``jetlinalg`` only.  ``check`` needs no more, ``mass`` and
``weyl-mass`` add ``mass`` and ``util`` (``witten_flux`` imports
``spinor`` when called; ``mass`` refuses an end system before).  The
batteries add ``suites`` and ``util``, the chunk loop that imports
nothing: ``curvature`` and ``identities``
with the pointwise layers up to ``spinor`` and never ``mass``, which
``suites`` imports only inside the ``witten`` and ``laws`` batteries.
``numpy.random`` loads only for the batteries that draw seeded samples
(``suites.rng_for``): ``curvature`` and ``identities``.
"""

__version__ = "0.1.0"

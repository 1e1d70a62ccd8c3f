"""Channel estimation for spatially dense dipole arrays.

Models a uniform planar array of thin dipoles with mutual coupling and
spatial correlation, and compares Bayesian and least-squares channel
estimators analytically and by Monte Carlo simulation.  Names are imported
from their submodules: ``geometry``, ``correlation``, ``coupling``,
``linalg``, ``estimation``, ``experiments``, ``config`` and ``cli``.
"""

__version__ = "0.1.0"

"""Chebyshev-Legendre tau solver for linear Fredholm fractional
integro-differential equations with Caputo derivatives on [0, 1].

The package splits into orthogonal-polynomial tables (`orthopoly`),
Gauss quadrature (`quadrature`), Caputo derivatives and their shifted
Legendre operational matrices (`fracderiv`), Chebyshev interpolation
carried into the Legendre frame (`cltransform`), the tau solver with its
manufactured solution tools and built-in problem catalog (`solver`), the
expression language used by problem configs (`exprlang`), and the command
line front end (`cli`).
"""

__version__ = "0.1.0"

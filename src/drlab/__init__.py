"""drlab: a numerical laboratory for the two-parameter recursion

    u_{n+1} = u_n psi(v_{n+1}),    v_{n+1} = u_n + v_n,

the generalized Derrida-Retaux dynamics.  The package builds critical
curves by a right-to-left march, exposes the two exactly solvable
model families (linear-fractional and continuous linear-fractional),
validates their closed-form evolution by pool Monte Carlo, and measures
the free-energy asymptotics exp(-C/sqrt(eps)) near the critical curve.  Names are imported from their modules, such
as ``drlab.curve.solve_curve``; the package re-exports none.
"""

__version__ = "0.1.0"

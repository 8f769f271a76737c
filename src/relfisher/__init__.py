"""Relative Fisher information of exactly solvable quantum systems.

Closed-form values in position and momentum space for the 1D and 3D harmonic
oscillators, hydrogen-like atoms, and the pseudoharmonic diatomic potential,
each validated against an independent adaptive-quadrature evaluation of the
defining integral.
"""

__version__ = "0.1.0"

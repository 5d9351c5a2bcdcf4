"""Optimal outcome-contingent payment contracts for end-of-life care.

Closed-form contract solvers for three provider risk profiles, a
brute-force LP oracle that certifies them, parameter estimation from
patient-level survival data, and a Monte Carlo policy simulator.
"""

__version__ = "0.1.0"

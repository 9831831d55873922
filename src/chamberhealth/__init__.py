"""Contamination health index for vacuum coating chambers.

Derives a health index (HI) from pumpdown pressure curves, forecasts it
ten production runs ahead, and benchmarks from-scratch regressors
against naive baselines on data from a built-in physics generator.
"""

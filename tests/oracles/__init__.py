"""Retired implementations kept as equivalence oracles for the tests."""

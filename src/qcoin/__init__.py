"""Quantum-coin partition function estimation: simulator and statistics."""

__version__ = "0.1.0"

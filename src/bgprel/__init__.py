"""Inference of AS business relationships from observed BGP paths."""

__version__ = "0.1.0"

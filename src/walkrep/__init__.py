"""Weighted random-walk sequence spaces and universal linear models."""

__version__ = "0.2.0"

"""Hypergeometric monodromy groups in Sp4/SO(2,3) and their dynamics."""

__version__ = "0.1.0"

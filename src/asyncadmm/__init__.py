"""Partition-based asynchronous ADMM with a deterministic delay simulator,
an AC optimal power flow backend, and trace diagnostics."""

from .kernel import AdmmParams
from .problem import make_toy_consensus

__version__ = "0.1.0"

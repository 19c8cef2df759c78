"""Bid-level budget optimization: LP model construction, a bounded
variable simplex, SOS1/SOS2 branch and bound with hot-start fixing
strategies, synthetic instance generation, brute-force oracles, and
file formats (instance JSON, MPS, solution files, benchmark CSV).

The package namespace carries the library workflow of README.md plus
the model dataclasses; everything else lives in its submodule."""

from .fileio import verify_solution
from .generate import GenParams, generate_instance
from .model import (
    Business,
    Campaign,
    Instance,
    LpColumn,
    LpModel,
    LpRow,
    build_model,
)
from .search import SearchLimits, branch_and_bound, relax_to_sos2

__version__ = "0.1.0"

__all__ = [
    "Business",
    "Campaign",
    "GenParams",
    "Instance",
    "LpColumn",
    "LpModel",
    "LpRow",
    "SearchLimits",
    "branch_and_bound",
    "build_model",
    "generate_instance",
    "relax_to_sos2",
    "verify_solution",
]

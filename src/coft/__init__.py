"""Collaborative fine-tuning of frozen-embedding classifiers.

Two lightweight models (learnable prompt contexts plus a low-rank visual
adapter each) are trained on high-confidence pseudo-labels, then cross-validate
each other's labels over the full unlabeled set; the filtered labels train a
small encoder plus classifier head, optionally with momentum contrast.
"""

__version__ = "0.1.0"

from .core import SeededRng
from .errors import (
    CoftError,
    ConfigError,
    ContractError,
    DomainError,
    FormatError,
    IntegrityError,
    PipelineError,
    ShapeError,
    TrainingError,
)

__all__ = [
    "SeededRng",
    "CoftError",
    "ConfigError",
    "ContractError",
    "DomainError",
    "FormatError",
    "IntegrityError",
    "PipelineError",
    "ShapeError",
    "TrainingError",
]

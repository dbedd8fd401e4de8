"""A prior reliability model the paper compares against.

Chen et al. (1994): RAID reliability with system crashes and
uncorrectable bit errors, using a distinct correlated MTTF instead of
the paper's multiplicative ``α``.
"""

from repro.baselines.chen import (
    chen_correlated_mttdl,
    chen_vs_alpha_model,
)

__all__ = [
    "chen_correlated_mttdl",
    "chen_vs_alpha_model",
]

"""The paper's threat taxonomy (Section 3) as structured generators.

Each of the eleven threat classes the paper enumerates — large-scale
disaster, human error, component faults, media faults, media/hardware
obsolescence, software/format obsolescence, loss of context, attack,
organisational faults, and economic faults — is represented with its
model-relevant attributes: how often it strikes, whether it manifests
visibly or latently, how many replicas it can hit at once, and what it
does to the model's parameters.  The taxonomy feeds both the simulator
(as shock generators) and the analytic model (as parameter adjustments).
"""

from repro.threats.taxonomy import (
    ThreatProfile,
    THREAT_REGISTRY,
    all_threat_profiles,
    combined_fault_model,
)
from repro.threats.events import (
    ThreatEvent,
    ThreatEventGenerator,
    sample_threat_timeline,
)
from repro.threats.correlation_sources import (
    correlation_pressure,
    dominant_correlation_sources,
)

__all__ = [
    "ThreatProfile",
    "THREAT_REGISTRY",
    "all_threat_profiles",
    "combined_fault_model",
    "ThreatEvent",
    "ThreatEventGenerator",
    "sample_threat_timeline",
    "correlation_pressure",
    "dominant_correlation_sources",
]

"""Packet latency breakdown (paper Figure 7).

Splits a request's end-to-end latency into a *network* component (router
pipeline, link serialisation, congestion) and a *queuing* component
(wait at the bank interface before service starts).  The paper shows the
queuing component worsening when SRAM is replaced by STT-RAM and the
proposed schemes recovering up to 35% of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.sim.results import SimulationResult


@dataclass
class LatencyBreakdown:
    """Average per-request latency components, in cycles."""

    network_latency: float
    queuing_latency: float

    @property
    def total(self) -> float:
        return self.network_latency + self.queuing_latency

    def percentages(self) -> Dict[str, float]:
        total = self.total
        if total <= 0:
            return {"network": 0.0, "queuing": 0.0}
        return {
            "network": 100.0 * self.network_latency / total,
            "queuing": 100.0 * self.queuing_latency / total,
        }


def breakdown_of(result: SimulationResult) -> LatencyBreakdown:
    parts = result.latency_breakdown()
    return LatencyBreakdown(
        network_latency=parts["network_latency"],
        queuing_latency=parts["bank_queuing_latency"],
    )


def normalized_breakdowns(
    breakdowns: Mapping[object, LatencyBreakdown], baseline_key
) -> Dict[object, Dict[str, float]]:
    """Figure 7 series: the baseline's components as exact percentages,
    every other scheme's components normalised to the baseline's."""
    base = breakdowns[baseline_key]
    base_pct = base.percentages()
    out = {baseline_key: base_pct}
    for key, b in breakdowns.items():
        if key == baseline_key:
            continue
        out[key] = {
            "network": (
                base_pct["network"] * b.network_latency
                / base.network_latency if base.network_latency else 0.0
            ),
            "queuing": (
                base_pct["queuing"] * b.queuing_latency
                / base.queuing_latency if base.queuing_latency else 0.0
            ),
        }
    return out

"""Exposure policies: how the global manager sets DNS VIP weights.

Each policy maps an application's VIPs — each pinned (via its advertisement)
to an access link — to exposure weights, given the current link state.
These are the "appropriate VIPs" policies of Section IV-A.
"""

from __future__ import annotations

import abc
from typing import Mapping, Union

import numpy as np

from repro.network.links import AccessLink


def weighted_cdf(weights: np.ndarray) -> np.ndarray:
    """Normalized inverse-transform CDF over a weight vector.

    This is byte-for-byte the arithmetic ``numpy.random.Generator.choice``
    performs internally for a given ``p``: normalize to probabilities,
    cumulative-sum, then renormalize the running sum so the last entry is
    exactly 1.0.  Both the object-model authority and the columnar DNS
    tables build their answer CDFs through this one function, which is
    what makes a scalar ``rng.choice`` draw and a vectorized
    ``searchsorted`` over the same uniforms *bit-identical* — the
    equivalence the differential data-plane harness asserts.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-d vector")
    probs = w / w.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def weighted_pick(
    weights: np.ndarray, u: Union[float, np.ndarray]
) -> Union[int, np.ndarray]:
    """Index drawn proportionally to *weights* from uniform draw(s) *u*.

    Scalar ``u`` returns an int; an array of uniforms returns the
    corresponding index array in one ``searchsorted`` — the vectorized
    path and the scalar path share the identical CDF, so feeding the same
    uniforms through either yields the same answer sequence.
    """
    cdf = weighted_cdf(weights)
    idx = np.searchsorted(cdf, u, side="right")
    if np.ndim(u) == 0:
        return int(idx)
    return idx


def segmented_pick(
    cdf: np.ndarray, lo: np.ndarray, hi: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Per-request draw over concatenated CDF segments, in one pass set.

    Request *i* owns the segment ``cdf[lo[i]:hi[i]]`` (non-empty) and
    gets ``lo[i] + np.searchsorted(cdf[lo[i]:hi[i]], u[i], side="right")``
    — the same index a per-segment :func:`weighted_pick` would return —
    without grouping requests by segment.  It is a branchless upper-bound
    bisection run on every request at once: the candidate window
    ``[base, base + n]`` halves each pass with one gather and one ``<=``,
    so the pass count is set by the longest segment, and no float
    arithmetic touches the CDF, which keeps ties (zero weights) and
    ``u`` at or past the last entry exact.
    """
    base = np.array(lo, dtype=np.int64)
    if base.size == 0:
        return base
    n = np.asarray(hi, dtype=np.int64) - base
    for _ in range(int(n.max() - 1).bit_length()):
        half = n >> 1
        base += half * (cdf[base + half] <= u)
        n -= half
    base += cdf[base] <= u
    return base


class ExposurePolicy(abc.ABC):
    """Strategy interface for computing VIP exposure weights."""

    @abc.abstractmethod
    def weights(
        self, vip_links: Mapping[str, AccessLink]
    ) -> dict[str, float]:
        """Return exposure weight per VIP given each VIP's access link."""


class UniformPolicy(ExposurePolicy):
    """Expose all VIPs equally (the no-traffic-engineering baseline)."""

    def weights(self, vip_links: Mapping[str, AccessLink]) -> dict[str, float]:
        return {vip: 1.0 for vip in vip_links}


class InverseUtilizationPolicy(ExposurePolicy):
    """Weight VIPs by the *absolute* spare capacity of their access link
    (spare fraction times capacity, in Gbps).

    Weighting by absolute headroom rather than spare fraction matters for
    stability: a small link that happens to be idle must not attract more
    traffic than it can absorb.  An overloaded link's VIPs fade toward zero
    exposure; a link at or above ``cutoff`` utilization is not exposed at
    all (unless every link is, in which case weights fall back to uniform
    to keep the app resolvable).
    """

    def __init__(self, cutoff: float = 0.95):
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        self.cutoff = cutoff

    def weights(self, vip_links: Mapping[str, AccessLink]) -> dict[str, float]:
        w = {}
        for vip, link in vip_links.items():
            spare = max(0.0, self.cutoff - link.utilization)
            w[vip] = spare * link.capacity_gbps
        if all(v == 0 for v in w.values()):
            return {vip: 1.0 for vip in vip_links}
        return w


class CheapestLinkPolicy(ExposurePolicy):
    """Prefer cheap links (the paper's 'different link usage costs'
    business requirement), falling back to spare capacity as tiebreak.

    Weight = spare_fraction / cost; links above the utilization cutoff get
    zero.
    """

    def __init__(self, cutoff: float = 0.95):
        self.cutoff = cutoff

    def weights(self, vip_links: Mapping[str, AccessLink]) -> dict[str, float]:
        w = {}
        for vip, link in vip_links.items():
            spare = max(0.0, self.cutoff - link.utilization)
            w[vip] = spare * link.capacity_gbps / max(link.cost_per_gbps, 1e-9)
        if all(v == 0 for v in w.values()):
            return {vip: 1.0 for vip in vip_links}
        return w

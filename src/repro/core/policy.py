"""Cleaning policies, shared by the simulator and the LFS cleaner (Sections 3.4-3.5).

Two independent axes, as the paper separates them: **selection** — which
segments to clean, greedy (least utilized first) or cost-benefit (highest
``(1-u) * age / (1+u)`` first) — and **grouping** — whether the live
blocks written back out are age-sorted so cold data segregates from hot.

Each substrate keeps its own candidate rule and inputs (LFS takes empty
segments first and ages a segment by its write time; the simulator drops
fully live segments and ages by block modified time) and ranks the rest
through :func:`choose`.
"""

from __future__ import annotations

import enum
import heapq


class CleaningPolicy(enum.Enum):
    """Segment-selection policies (Section 3.4, policy 3)."""

    GREEDY = "greedy"
    COST_BENEFIT = "cost-benefit"


class GroupingPolicy(enum.Enum):
    """Live-block grouping during clean-out."""

    NONE = "none"
    AGE_SORT = "age-sort"


def cost_benefit_key(live, mtime, now: float, capacity: int):
    """The benefit-to-cost ratio as a scoring function (Section 3.5).

    ``u = live(seg) / capacity`` and ``age = now - mtime(seg)``, clamped at
    zero. The simulator passes live-block counts, blocks per segment and
    the youngest block's modified time, each a list's ``__getitem__``; LFS
    passes its usage table's utilization, a capacity of 1 and the
    segment's write time.
    """

    def ratio(seg):
        u = live(seg) / capacity
        age = now - mtime(seg)
        if age < 0.0:  # max(0.0, age) without the call
            age = 0.0
        return (1.0 - u) * age / (1.0 + u)

    return ratio


def choose(
    policy: CleaningPolicy, candidates: list[int], count: int, live,
    mtime=None, now: float = 0.0, capacity: int = 1, weight=None,
) -> list[int]:
    """The ``count`` best ``candidates`` under ``policy``, best first.

    Greedy ranks by ``live`` alone, least first; cost-benefit by
    :func:`cost_benefit_key` times ``weight(seg)`` if given, highest
    first. Ties keep candidate order, so the result equals the stable
    full sort cut to ``count``: ``min``/``max`` return the first extreme
    element, and ``heapq.nsmallest``/``nlargest`` are documented to equal
    ``sorted(...)[:count]`` (with ``reverse=True`` for the largest).
    """
    if not candidates:
        return []
    if policy is CleaningPolicy.GREEDY:
        key, best, top = live, min, heapq.nsmallest
    elif policy is CleaningPolicy.COST_BENEFIT:
        key = score = cost_benefit_key(live, mtime, now, capacity)
        if weight is not None:
            def key(seg):
                return score(seg) * weight(seg)
        best, top = max, heapq.nlargest
    else:
        raise ValueError(f"unknown cleaning policy {policy!r}")
    if count == 1:
        return [best(candidates, key=key)]
    return top(count, candidates, key=key)


# Full-sort rankings: the oracles tests hold ``choose`` to.


class SegmentView:
    """What a policy needs to know about segments (duck-typed)."""

    def live_blocks(self, seg: int) -> int: ...

    def segment_mtime(self, seg: int) -> float: ...


def rank_greedy(candidates: list[int], view: SegmentView) -> list[int]:
    """Least-utilized segments first — the paper's simple greedy policy."""
    return sorted(candidates, key=view.live_blocks)


def rank_cost_benefit(
    candidates: list[int], view: SegmentView, now: float, blocks_per_segment: int
) -> list[int]:
    """Highest benefit-to-cost ratio first (Section 3.5).

    Cold segments get cleaned at much higher utilizations than hot ones.
    """
    return sorted(
        candidates,
        key=cost_benefit_key(
            view.live_blocks, view.segment_mtime, now, blocks_per_segment
        ),
        reverse=True,
    )

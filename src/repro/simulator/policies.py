"""Cleaning policies for the simulator (Sections 3.4-3.5).

Two independent policy axes, exactly as the paper separates them:

- **selection** — which segments to clean: greedy (least utilized first)
  or cost-benefit (highest ``(1-u) * age / (1+u)`` first);
- **grouping** — how to order the live blocks written back out: in the
  order they were found, or sorted by age so cold data segregates from
  hot ("age sort").
"""

from __future__ import annotations

import enum
from typing import Callable, Protocol, Sequence


class SelectionPolicy(enum.Enum):
    """Segment-selection policies."""

    GREEDY = "greedy"
    COST_BENEFIT = "cost-benefit"


class GroupingPolicy(enum.Enum):
    """Live-block grouping during clean-out."""

    NONE = "none"
    AGE_SORT = "age-sort"


class SegmentView(Protocol):
    """What a policy needs to know about segments (duck-typed)."""

    def live_blocks(self, seg: int) -> int: ...

    def segment_mtime(self, seg: int) -> float: ...


def rank_greedy(candidates: Sequence[int], view: SegmentView) -> list[int]:
    """Least-utilized segments first — the paper's simple greedy policy."""
    return sorted(candidates, key=view.live_blocks)


def cost_benefit_key(
    live_blocks: Callable[[int], int],
    segment_mtime: Callable[[int], float],
    now: float,
    blocks_per_segment: int,
) -> Callable[[int], float]:
    """The benefit-to-cost ratio as a scoring function (Section 3.5).

    benefit/cost = (1 - u) * age / (1 + u), with age taken from the most
    recent modified time of any block in the segment. ``live_blocks`` and
    ``segment_mtime`` map a segment to its live-block count and youngest
    block's modified time: a view's methods, or a list's ``__getitem__``.
    """

    def ratio(seg: int) -> float:
        u = live_blocks(seg) / blocks_per_segment
        age = now - segment_mtime(seg)
        if age < 0.0:  # max(0.0, age) without the call
            age = 0.0
        return (1.0 - u) * age / (1.0 + u)

    return ratio


def rank_cost_benefit(
    candidates: Sequence[int], view: SegmentView, now: float, blocks_per_segment: int
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

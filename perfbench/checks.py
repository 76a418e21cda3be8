"""Output checks, each computed apart from the program under test.

Every check takes plain Python/numpy values the benchmark read back
from the program (windows, feature matrices, journal states, track
points) and the simulator's ground truth, and returns a list of
failure messages; an empty list means the check passed.  Nothing here
imports the program's ranking, windowing or tracking code.
"""

from __future__ import annotations

import math

import numpy as np

#: Sampling points per window x frames between sampling points.
WINDOW_FRAMES = 3 * 5
#: A vehicle-frame is matched when a track point lies this close.
TRACK_RADIUS_PX = 8.0
#: Share of a clip's vehicle-frames that must be matched.  The lowest
#: share seen from correct tracking was 78% (merged blobs at an
#: intersection collision); a broken tracker matches far less.
TRACK_MIN_SHARE = 0.60
#: Vehicles whose centroid is nearer the image border than this are
#: partly outside the frame and are not counted.
TRACK_BORDER_PX = 12.0


def check_incidents_covered(incidents: dict[str, list[tuple[int, int]]],
                            windows: dict[str, list[tuple[int, int]]]
                            ) -> list[str]:
    """Every accident span overlaps the frame window of some stored bag."""
    out = []
    for clip, spans in incidents.items():
        stored = windows.get(clip, [])
        for start, end in spans:
            if not any(lo <= end and hi >= start for lo, hi in stored):
                out.append(f"{clip}: accident [{start},{end}] is in no "
                           f"stored bag")
    return out


def check_window_spans(windows: dict[str, list[tuple[int, int]]],
                       span: int = WINDOW_FRAMES) -> list[str]:
    """Each bag spans ``span`` frames (or is clipped at frame 0)."""
    out = []
    for clip, stored in windows.items():
        for lo, hi in stored:
            if hi - lo + 1 != span and not (lo == 0 and hi < span):
                out.append(f"{clip}: bag [{lo},{hi}] does not span "
                           f"{span} frames")
    return out


def check_readback(emitted: dict[str, tuple[int, int]],
                   stored: dict[str, tuple[int, int]],
                   journal: dict[str, dict[int, str]],
                   n_segments: dict[str, int]) -> list[str]:
    """The catalog holds what was emitted and journals every segment.

    ``emitted``/``stored`` map clip -> (bags, instances); ``journal``
    maps clip -> segment index -> latest state.
    """
    out = []
    for clip, counts in emitted.items():
        if stored.get(clip) != counts:
            out.append(f"{clip}: emitted (bags, instances) {counts}, "
                       f"catalog holds {stored.get(clip)}")
        states = journal.get(clip, {})
        want = set(range(n_segments[clip]))
        if set(states) != want:
            out.append(f"{clip}: journal segments {sorted(states)} "
                       f"!= {sorted(want)}")
        bad = {i: s for i, s in states.items() if s != "appended"}
        if bad:
            out.append(f"{clip}: segments not appended: {bad}")
    return out


def track_match_share(vehicles: dict[int, np.ndarray],
                      points: dict[int, np.ndarray],
                      radius: float = TRACK_RADIUS_PX) -> float:
    """Share of vehicle-frames with a track point within ``radius``.

    ``vehicles`` maps frame -> (n, 2) true centroids in view;
    ``points`` maps frame -> (m, 2) tracked centroids.
    """
    total = matched = 0
    for frame, truth in vehicles.items():
        total += len(truth)
        seen = points.get(frame)
        if seen is None or not len(seen):
            continue
        dist = np.hypot(truth[:, None, 0] - seen[None, :, 0],
                        truth[:, None, 1] - seen[None, :, 1])
        matched += int((dist.min(axis=1) <= radius).sum())
    return matched / total if total else 1.0


def check_tracks(clip: str, share: float,
                 min_share: float = TRACK_MIN_SHARE) -> list[str]:
    """Enough vehicle-frames are tracked (see :func:`track_match_share`)."""
    if share < min_share:
        return [f"{clip}: tracks match {share:.1%} of vehicle-frames "
                f"within {TRACK_RADIUS_PX:g}px, need {min_share:.0%}"]
    return []


def initial_ranking(corpus: list[tuple[str, list[tuple[int, int, list]]]]
                    ) -> list[tuple[str, int, int]]:
    """The paper's feedback-free ranking, computed here from features.

    ``corpus`` lists clips in corpus order, each with its bags as
    ``(frame_lo, frame_hi, [instance feature matrix, ...])``.  A bag
    scores the max over its TSs of the max over sampling points of the
    square sum of the features; ties go by clip order, then frame.
    """
    scored = []
    for order, (clip, bags) in enumerate(corpus):
        for lo, hi, matrices in bags:
            score = max((float((np.asarray(m, dtype=float) ** 2)
                               .sum(axis=1).max()) for m in matrices),
                        default=-math.inf)
            scored.append((-score, order, lo, hi, clip))
    scored.sort()
    return [(clip, lo, hi) for _, _, lo, hi, clip in scored]


def check_first_ranking(expected: list, got: list) -> list[str]:
    if list(got) != list(expected):
        return [f"first ranking {got[:3]}... differs from the initial "
                f"score ranking {expected[:3]}..."]
    return []


def check_rankings(rankings: list[list], corpus: set, k: int) -> list[str]:
    """Every ranking holds ``k`` distinct bags of the corpus."""
    out = []
    for i, ranking in enumerate(rankings):
        if len(ranking) != k or len(set(ranking)) != k:
            out.append(f"ranking {i} has {len(set(ranking))} distinct of "
                       f"{len(ranking)} bags, want {k}")
        foreign = [w for w in ranking if w not in corpus]
        if foreign:
            out.append(f"ranking {i} returns bags outside the corpus: "
                       f"{foreign[:3]}")
    return out


def check_relevance(relevant_top_k: float, base_rate: float,
                    k: int) -> list[str]:
    """Retrieval beats picking ``k`` bags at random."""
    if not relevant_top_k > base_rate * k:
        return [f"relevant in top {k} {relevant_top_k:.2f} is not above "
                f"the base rate x {k} = {base_rate * k:.2f}"]
    return []


def check_same_rankings(service: list[list], library: list[list]
                        ) -> list[str]:
    """Service and library hand one analyst the same rankings."""
    if service != library:
        diff = next(i for i, (a, b) in enumerate(zip(service, library))
                    if a != b) if len(service) == len(library) else "count"
        return [f"service and library rankings differ (round {diff})"]
    return []

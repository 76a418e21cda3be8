"""Seeded inputs: simulated clips, the analyst catalog and analyst labels.

Everything here is derived from seeds alone, so the same ``--seed``
gives the same inputs.  The workload seed picks the clips the
``ingest`` workload streams and the analysts' label-error streams.  The
analyst catalog is one fixed archive (:data:`CATALOG_SEED`): the
accuracy of the paper's loop moves by 20-26% (IQR over median) from one
simulated 8-clip archive to the next, more than any regression bound,
while over one archive it moves by 3% between analyst seeds.  The
program under test only ever sees the generated clips and labels, never
a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim import intersection, tunnel
from repro.sim.incidents import ACCIDENT_KINDS

EVENT = "accident"
TOP_K = 20
#: Feedback rounds per analyst after the initial ranking (paper §6).
ROUNDS = 4
#: Analyst profiles per pass; every pass replays the same profiles.
ANALYSTS_PER_PASS = 8
#: Chance that an analyst mislabels one returned window.
LABEL_ERROR = 0.05

#: The ``ingest`` workload streams tunnel/intersection clip pairs of
#: this many frames each.
INGEST_FRAMES = 300
INGEST_PAIRS = 4
#: Frames per streamed segment in the ``ingest`` workload.
SEGMENT_FRAMES = 25
#: The analyst catalog: 4 tunnel and 4 intersection clips.
CATALOG_CLIPS = (("tunnel", 4, 900), ("intersection", 4, 700))
CATALOG_SEED = 0


def derive(seed: int, *tag: int) -> int:
    """A 32-bit seed for one input, decorrelated from its siblings."""
    return int(np.random.SeedSequence([int(seed), *tag]).generate_state(1)[0])


def simulate(scenario: str, index: int, n_frames: int, seed: int):
    """One seeded clip named ``<scenario>-<index>``.

    Incident counts scale with clip length the way ``repro simulate``
    scales them, so short clips keep a few incidents each.
    """
    clip_seed = derive(seed, 0 if scenario == "tunnel" else 1, index)
    if scenario == "tunnel":
        factor = n_frames / 2500
        sim = tunnel(n_frames=n_frames, seed=clip_seed,
                     n_wall_crashes=max(1, round(7 * factor)),
                     n_sudden_stops=max(1, round(5 * factor)))
    else:
        factor = n_frames / 600
        sim = intersection(n_frames=n_frames, seed=clip_seed,
                           n_collisions=max(1, round(5 * factor)),
                           n_near_misses=max(1, round(4 * factor)))
    sim.name = f"{scenario}-{index}"
    return sim


def ingest_clips(seed: int) -> list:
    """The clips one ``ingest`` pass streams in: alternating pairs."""
    return [simulate(scenario, i, INGEST_FRAMES, seed)
            for i in range(INGEST_PAIRS)
            for scenario in ("tunnel", "intersection")]


def catalog_clips() -> list:
    """The 8 clips of the analyst catalog, in corpus order."""
    return [simulate(scenario, i, n_frames, CATALOG_SEED)
            for scenario, count, n_frames in CATALOG_CLIPS
            for i in range(count)]


def build_catalog(path: str, sims: list) -> None:
    """Store ``sims`` in a fresh file catalog from simulator tracks.

    Oracle mode takes tracks from simulator truth, so no vision code
    runs while the analyst catalog is built.
    """
    from repro.db import VideoDatabase
    from repro.eval import build_artifacts

    with VideoDatabase(path) as db:
        for sim in sims:
            art = build_artifacts(sim, mode="oracle", event=EVENT)
            db.ingest_simulation(sim, art.tracks, art.dataset)


def accident_windows(sims: list) -> dict[str, list[tuple[int, int]]]:
    """Per clip, the frame spans of its scripted accident incidents."""
    return {
        sim.name: [(r.frame_start, r.frame_end) for r in sim.incidents
                   if r.kind in ACCIDENT_KINDS]
        for sim in sims
    }


def shows_incident(spans: list[tuple[int, int]], lo: int, hi: int) -> bool:
    """True iff an accident span overlaps the window ``[lo, hi]``."""
    return any(start <= hi and end >= lo for start, end in spans)


@dataclass(frozen=True)
class Analyst:
    """One simulated analyst: labels the top 20 from the incident log.

    Each returned window is labelled by whether it shows an accident,
    flipped with probability :data:`LABEL_ERROR` from a stream seeded
    by (workload seed, profile, round), so label histories differ
    between profiles and repeat exactly for the same profile.
    """

    seed: int
    profile: int

    def labels(self, round_index: int,
               windows: list[tuple[str, int, int]],
               truth: dict[str, list[tuple[int, int]]]) -> list[bool]:
        rng = np.random.default_rng(
            derive(self.seed, 2, self.profile, round_index))
        flips = rng.random(len(windows)) < LABEL_ERROR
        return [shows_incident(truth[clip], lo, hi) != bool(flip)
                for (clip, lo, hi), flip in zip(windows, flips)]

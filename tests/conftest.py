"""Shared fixtures: tone helpers, a small trained setup, and the desk-scale rig.

The small setup (14 short tracks, full training plan) backs integration
tests; the desk rig (112 x 30 s catalog, 200 queries) is what the acceptance
suite runs against. Both are session-scoped because training is the
expensive part.
"""

import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from corpus import build_corpus, synth_track  # noqa: E402

from printdex import pipeline  # noqa: E402
from printdex.audio import AudioBuffer  # noqa: E402


def make_sine(freq, duration=2.0, sr=11025, amp=0.5):
    t = np.arange(int(duration * sr)) / sr
    return AudioBuffer(samples=amp * np.sin(2.0 * np.pi * freq * t), sample_rate=sr)


@pytest.fixture(scope="session")
def small_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("small_corpus")
    manifest, entries = build_corpus(root, 14, duration_s=20.0)
    model = pipeline.train_from_manifest(entries, times_per_track=7, pool_times_per_track=40, seed=0, enforce_min_originals=False)
    index = pipeline.build_index(entries, model, lsh_seed=7)
    return SimpleNamespace(root=root, manifest=manifest, entries=entries, model=model, index=index)


DESK_TRACKS = 112
DESK_DURATION = 30.0
DESK_QUERIES = 200


@pytest.fixture(scope="session")
def desk_setup(tmp_path_factory):
    """Desk-scale rig: >= 100 tracks x 30 s, trained model, index, 200 queries."""
    root = tmp_path_factory.mktemp("desk_corpus")
    manifest, entries = build_corpus(root, DESK_TRACKS, duration_s=DESK_DURATION)
    model = pipeline.train_from_manifest(entries, times_per_track=6, pool_times_per_track=45, seed=11, enforce_min_originals=True)
    index = pipeline.build_index(entries, model, lsh_seed=3)
    queries = pipeline.make_queries(entries, DESK_QUERIES, 7.0, seed=21)
    return SimpleNamespace(root=root, manifest=manifest, entries=entries, model=model, index=index, queries=queries)

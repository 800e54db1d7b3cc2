"""The benchmark's synthetic inputs: one fixed corpus, seeded requests.

The refresh path always folds the same corpus: one synthetic world of
``N_ARTICLES`` articles and ``N_TWEETS`` tweets.  At a size a run can
afford, worlds drawn from different seeds differ in how many events and
dataset rows they yield by more than the refresh cost moves between
two runs of one world, so a per-seed corpus would hide a code change
behind the draw.  The corpus is generated once per checkout and cached
under ``.perfbench/``.

The run's seed draws the requests: fresh tweets from the same world
model (same topics, timeline and users), never ingested, so every one
is a tweet the pipeline has not seen.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import random
from dataclasses import dataclass, replace
from typing import Dict, List

from repro.core import PipelineConfig
from repro.datagen import NewsGenerator, TwitterGenerator, UserPopulation, WorldConfig
from repro.text import preprocess_for_event_detection

from stats import split_evenly

N_ARTICLES = 1200
N_TWEETS = 2500
N_REQUESTS = 1200
WORLD_SEED = 0
BACKLOG_FRACTION = 0.7


def pipeline_config() -> PipelineConfig:
    """The pipeline configuration of every refresh (the streaming bench's)."""
    return PipelineConfig(
        n_topics=8,
        n_news_events=12,
        n_twitter_events=18,
        nmf_max_iter=100,
        embedding_dim=48,
        min_term_support=5,
        min_event_records=4,
        seed=WORLD_SEED,
    )


def world_config() -> WorldConfig:
    return WorldConfig(
        n_articles=N_ARTICLES, n_tweets=N_TWEETS, n_users=300, duration_days=28,
        seed=WORLD_SEED,
    )


@dataclass
class BenchWorld:
    """The corpus, split for set-up and cycles, and the run's requests."""

    backlog_news: List[dict]
    backlog_tweets: List[dict]
    slices: List[Dict[str, List[dict]]]
    requests: List[dict]


def request_payload(tweet: dict) -> dict:
    """The ``POST /predict`` body that scores *tweet* online."""
    return {
        "tokens": preprocess_for_event_detection(tweet["text"]),
        "followers": int(tweet["followers"]),
        "created_at": tweet["created_at"].isoformat(),
    }


def _corpus(cache_dir: str):
    """``(news, tweets)`` of the fixed world, from the cache when present."""
    import repro.datagen

    key = hashlib.sha256(repr(world_config()).encode())
    source_dir = os.path.dirname(repro.datagen.__file__)
    for name in sorted(os.listdir(source_dir)):
        if name.endswith(".py"):
            with open(os.path.join(source_dir, name), "rb") as handle:
                key.update(handle.read())
    path = os.path.join(cache_dir, f"world-{key.hexdigest()[:16]}.pickle")
    try:
        with open(path, "rb") as handle:
            return pickle.load(handle)
    except FileNotFoundError:
        pass
    config = world_config()
    corpus = (
        NewsGenerator(config).generate(),
        TwitterGenerator(config, UserPopulation(config)).generate(),
    )
    os.makedirs(cache_dir, exist_ok=True)
    partial = f"{path}.{os.getpid()}"
    with open(partial, "wb") as handle:
        pickle.dump(corpus, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(partial, path)
    return corpus


def _requests(seed: int) -> List[dict]:
    """Distinct request payloads: fresh tweets drawn with *seed*."""
    base = world_config()
    # Offset so no seed reproduces the corpus' own tweet stream.
    config = replace(base, n_tweets=N_REQUESTS, seed=WORLD_SEED + 1 + seed % (1 << 31))
    tweets = TwitterGenerator(config, UserPopulation(base)).generate()
    # Distinct token lists only: a repeated list would hit the feature
    # cache where the workload means to miss it.
    requests, seen = [], set()
    for tweet in tweets:
        payload = request_payload(tweet)
        key = tuple(payload["tokens"])
        if key and key not in seen:
            seen.add(key)
            requests.append(payload)
    random.Random(seed).shuffle(requests)
    return requests


def build(seed: int, n_slices: int, cache_dir: str) -> BenchWorld:
    """The corpus cut for *n_slices* refreshes, and *seed*'s requests."""
    news, tweets = _corpus(cache_dir)
    cut_news = int(len(news) * BACKLOG_FRACTION)
    cut_tweets = int(len(tweets) * BACKLOG_FRACTION)
    slices = [
        {"news": n, "tweets": t}
        for n, t in zip(
            split_evenly(news[cut_news:], n_slices),
            split_evenly(tweets[cut_tweets:], n_slices),
        )
    ]
    return BenchWorld(
        backlog_news=news[:cut_news],
        backlog_tweets=tweets[:cut_tweets],
        slices=slices,
        requests=_requests(seed),
    )

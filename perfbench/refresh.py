"""The refresh process: the §4.9 two-hour refresh, one process of its own.

Does what the incremental branch of ``DeploymentSimulator.run`` does,
through public calls only: ``IncrementalPipeline.append_news`` /
``append_tweets`` -> ``cycle()`` -> ``build_paper_network("MLP 1")``
warm-started and fitted on A2/likes -> ``save_artifact`` -> ``POST
/swap``.  ``run.py`` starts it and talks to it in JSON lines: commands
on stdin, one event per line on the original stdout (everything the
library prints goes to stderr instead).

Commands: ``{"cmd": "setup"}`` folds the backlog into a fresh pipeline
and trains and exports the first model; ``{"cmd": "cycles", "url": U}``
runs every refresh cycle back to back against the server at ``U``;
``{"cmd": "probe"}`` times the host-speed probe (``hostspeed.py``),
which each cycle also runs right after its swap; ``{"cmd": "exit",
"spans": PATH}`` writes the recorded spans and exits.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import sys
import time
import traceback
from typing import Dict, List, Optional

import numpy as np

from repro.core.prediction import N_CLASSES
from repro.datasets import train_validation_split
from repro.nn import accuracy, build_paper_network, one_hot
from repro.resilience import config_fingerprint
from repro.serving import HTTPServingClient, save_artifact
from repro.store import Database
from repro.streaming import IncrementalPipeline

import world
from hostspeed import HostProbe
from spans import Tracer

VARIANT = "A2"
NETWORK = "MLP 1"
#: A fixed training budget per refresh.  The deployment loop stops
#: early on a loss plateau, which makes the epoch count, and with it the
#: refresh time, a property of the seed's data rather than of the code.
EPOCHS = 10


def _artifact_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name)) for name in os.listdir(directory)
    )


def _weights_digest(weights: List[np.ndarray]) -> str:
    digest = hashlib.sha256()
    for array in weights:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class Refresher:
    """One deployment's refresh loop over the benchmark world."""

    def __init__(
        self, seed: int, n_slices: int, work: str, cache: str, tracer: Tracer
    ) -> None:
        self.seed = seed
        self.cache = cache
        self.config = world.pipeline_config()
        self.fingerprint = config_fingerprint(self.config)
        self.n_slices = n_slices
        self.work = work
        self.tracer = tracer
        self.world: Optional[world.BenchWorld] = None
        self.pipeline: Optional[IncrementalPipeline] = None
        self.weights: Optional[List[np.ndarray]] = None
        self.setups = 0
        self.probe = HostProbe()

    def generate(self) -> dict:
        self.world = world.build(self.seed, self.n_slices, self.cache)
        path = os.path.join(self.work, "requests.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.world.requests, handle)
        return {"event": "world", "requests": path}

    def _ingest(self, news: List[dict], tweets: List[dict], trace: str, parent) -> int:
        with self.tracer.span("streaming.ingest", trace, parent):
            return (
                self.pipeline.append_news(news).accepted
                + self.pipeline.append_tweets(tweets).accepted
            )

    def _train_and_export(self, result, label: str, trace: str, parent) -> dict:
        """Fit MLP 1 on A2/likes (warm when weights exist) and export it."""
        dataset = result.datasets.get(VARIANT)
        if dataset is None or dataset.n_samples == 0:
            raise RuntimeError(f"{label}: the cycle produced an empty {VARIANT} dataset")
        labels = dataset.y_likes
        split = train_validation_split(
            dataset.n_samples,
            validation_fraction=self.config.validation_fraction,
            seed=self.config.seed,
            stratify=labels,
        )
        with self.tracer.span("nn.fit", trace, parent):
            model = build_paper_network(
                NETWORK, input_dim=dataset.n_features, seed=self.config.seed
            )
            if self.weights is not None:
                model.build((dataset.n_features,))
                model.set_weights(self.weights)
            history = model.fit(
                dataset.X[split.train],
                one_hot(labels[split.train], N_CLASSES),
                epochs=EPOCHS,
                batch_size=self.config.batch_size,
            )
            self.weights = model.get_weights()
            val_accuracy = accuracy(
                labels[split.validation], model.predict(dataset.X[split.validation])
            )
        directory = os.path.join(self.work, f"artifact-{label}")
        digest = _weights_digest(self.weights)
        with self.tracer.span("serving.export", trace, parent):
            save_artifact(
                directory,
                model=model,
                embeddings=result.embeddings,
                variant=VARIANT,
                network=NETWORK,
                fingerprint=self.fingerprint,
                metadata={
                    "label": label,
                    "weights_sha256": digest,
                    "validation_accuracy": val_accuracy,
                },
            )
        return {
            "artifact": directory,
            "weights_sha256": digest,
            "rows": dataset.n_samples,
            "train_rows": int(len(split.train)),
            "epochs": history.epochs,
            "artifact_bytes": _artifact_bytes(directory),
        }

    def setup(self) -> dict:
        """Fold the backlog into a fresh pipeline; train and export."""
        self.setups += 1
        trace = f"setup-{self.setups}"
        self.weights = None
        with self.tracer.span("refresh.setup", trace) as root:
            self.pipeline = IncrementalPipeline(
                self.config, database=Database(f"perfbench-{self.setups}")
            )
            self._ingest(self.world.backlog_news, self.world.backlog_tweets, trace, root)
            with self.tracer.span("streaming.cycle", trace, root):
                result = self.pipeline.cycle()
            report = self._train_and_export(result, trace, trace, root)
        report.update(event="setup")
        return report

    def cycle(self, index: int, client: HTTPServingClient) -> dict:
        """One refresh: ingest a slice, cycle, train, export, swap."""
        piece = self.world.slices[index]
        trace = f"cycle-{index}"
        cpu_started = time.process_time()
        started = time.perf_counter()
        with self.tracer.span("refresh.cycle", trace) as root:
            new_docs = self._ingest(piece["news"], piece["tweets"], trace, root)
            with self.tracer.span("streaming.cycle", trace, root):
                result = self.pipeline.cycle()
            report = self._train_and_export(result, trace, trace, root)
            with self.tracer.span("serving.swap", trace, root):
                ack = client.swap(report["artifact"], expect_fingerprint=self.fingerprint)
            finished = time.perf_counter()
        if ack.get("fingerprint") != self.fingerprint or (
            ack.get("metadata", {}).get("weights_sha256") != report["weights_sha256"]
        ):
            raise RuntimeError(
                f"{trace}: /swap acknowledged {ack.get('fingerprint')!r} / "
                f"{ack.get('metadata')!r}, not the artifact just exported"
            )
        report.update(
            event="cycle",
            index=index,
            version=int(ack["version"]),
            new_docs=new_docs,
            stages=dict(result.timings_seconds),
            refresh_s=finished - started,
            cpu_s=time.process_time() - cpu_started,
            probe_s=self.probe.seconds(),
        )
        return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--slices", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Protocol lines go to the original stdout; stray prints to stderr.
    channel = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)

    def send(message: Dict[str, object]) -> None:
        channel.write(json.dumps(message) + "\n")

    # One CPU for the whole run: the two CPUs of a small VM change speed
    # independently, and the host-speed probe must time the CPU the
    # cycle it scales ran on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tracer = Tracer(bool(args.trace), "refresh")
    refresher = Refresher(args.seed, args.slices, args.work, args.cache, tracer)
    try:
        world_event = refresher.generate()
        # The world is the benchmark's input, held here only to be fed
        # in slices; keep the collector from walking it on every pass.
        gc.collect()
        gc.freeze()
        send(world_event)
        for line in sys.stdin:
            command = json.loads(line)
            if command["cmd"] == "setup":
                send(refresher.setup())
            elif command["cmd"] == "cycles":
                client = HTTPServingClient(command["url"], timeout_s=60.0)
                for index in range(command["n"]):
                    send(refresher.cycle(index, client))
                send({"event": "cycles_done"})
            elif command["cmd"] == "probe":
                send({"event": "probe", "seconds": refresher.probe.seconds()})
            elif command["cmd"] == "exit":
                refresher.tracer.write(command["spans"])
                send({"event": "bye"})
                return 0
            else:
                raise ValueError(f"unknown command {command!r}")
    except Exception as exc:  # report any failure on the protocol channel
        traceback.print_exc()
        send({"event": "error", "message": f"{type(exc).__name__}: {exc}"})
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())

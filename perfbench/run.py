"""Update-exchange benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload repo-insert --seed 1 --seconds 20 --trace 0

A run sets up its system three times (``setup_s`` is the median), then
repeats one closed-loop episode on a fresh system until ``--seconds`` have
passed and reports medians over episodes.  ``--trace 0`` reports the
end-to-end metrics.  ``--trace 1`` spends half the time on untraced
episodes and half on episodes with the wrappers of ``layers.py`` installed,
and reports each layer's self time and counts plus the tracing overhead.

The process re-executes itself with ``PYTHONHASHSEED`` set from ``--seed``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: End-to-end metrics (``--trace 0``), name -> unit.
END_TO_END = {
    "committed_per_s": "1/s",
    "turnaround_p50_ms": "ms",
    "turnaround_p95_ms": "ms",
    "executions_per_commit": "ratio",
    "committed_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``), name -> unit.  A ``<layer>_s`` name
#: not computed otherwise is that layer's self time (see layers.py).
PER_LAYER = {
    "core.revalidate_s": "s",
    "core.still_holds_calls": "count",
    "core.still_holds_true_ratio": "ratio",
    "core.plan_s": "s",
    "core.detect_s": "s",
    "core.detect_calls": "count",
    "query.find_matches_calls": "count",
    "query.atom_matches_per_find": "ratio",
    "storage.more_specific_s": "s",
    "concurrency.track_s": "s",
    "concurrency.track_calls": "count",
    "concurrency.conflict_check_s": "s",
    "concurrency.abort_s": "s",
    "concurrency.schedule_s": "s",
    "concurrency.steps": "count",
    "concurrency.steps_per_commit": "ratio",
    "concurrency.aborts": "count",
    "concurrency.abort_ratio": "ratio",
    "concurrency.cascading_abort_requests": "count",
    "storage.apply_s": "s",
    "storage.rollback_s": "s",
    "storage.compact_s": "s",
    "storage.durable_append_s": "s",
    "storage.durable_bytes_per_commit": "B",
    "service.self_s": "s",
    "service.queue_wait_p50_ms": "ms",
    "codec.encode_s": "s",
    "codec.decode_s": "s",
    "codec.bytes_per_commit": "B",
    "federation.exchange_s": "s",
    "federation.transport_s": "s",
    "federation.network_s": "s",
    "federation.coordinator_s": "s",
    "federation.deliveries_deferred": "count",
    "federation.frames_per_commit": "ratio",
    "federation.payloads_per_frame": "ratio",
    "federation.drain_rounds": "count",
    "federation.drain_ms": "ms",
    "federation.peer_cpu_s": "s",
    "federation.peer_busy_frac": "ratio",
    "federation.coordinator_cpu_s": "s",
    "trace.overhead": "ratio",
    "trace.spans": "count",
    "trace.schedule_identical": "bool",
}


def _arguments(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the smoke-test size")
    return parser.parse_args(argv)


def _reexec_with_hash_seed(seed: int) -> None:
    wanted = str(seed % 4294967296)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        environment = dict(os.environ, PYTHONHASHSEED=wanted)
        os.execve(sys.executable, [sys.executable] + sys.argv, environment)


def _source_digest() -> str:
    """Identity of the code under test (the checkout need not be a git repo)."""
    digest = hashlib.sha256()
    source = os.path.join(ROOT, "src")
    for directory, subdirectories, files in os.walk(source):
        subdirectories.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, source).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _percentile(values, fraction: float) -> float:
    """Nearest-rank percentile of *values* (0.0 when there are none)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(max(1, math.ceil(fraction * len(ordered))), len(ordered))
    return ordered[rank - 1]


def _setup(workload, size: str):
    """Build inputs and system SETUPS times; keep the last, report the median."""
    times = []
    system = None
    for _ in range(SETUPS):
        if system is not None:
            system.close()
        started = time.perf_counter()
        inputs = workload.make_inputs(size)
        system = workload.make_system(inputs)
        times.append(time.perf_counter() - started)
    return inputs, system, statistics.median(times)


class Episode:
    """One closed-loop episode and what was read from the system after it."""

    def __init__(self, loop, peers: int, layers=None):
        self.loop = loop
        #: ``system.counters()`` after the episode (``None`` if it failed).
        self.counters = None
        #: Peer CPU and lifetime, filled in once the system has closed.
        self.peer_cpu_s = 0.0
        self.peer_wall_s = 0.0
        self.peers = peers
        #: This process's peak RSS (KiB) when the episode ended, before its
        #: output check could allocate.
        self.rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        #: The largest reaped peer process's peak RSS (KiB) once the system
        #: has closed (zero without peers).
        self.peer_rss_kib = 0
        #: The span recorder of a traced episode.
        self.layers = layers


def _episodes(workload, inputs, system, seconds: float, traced: bool, check):
    """Repeat the episode on fresh systems until *seconds* have passed.

    Every episode starts from the same initial store with the same
    operations, so repeating it averages out machine noise, not input
    variety.  Each episode's output is checked with *check* once its system
    has closed; checking does not count against *seconds*.  Returns the
    episodes and every error or failed check.
    """
    from layers import LayerTracer
    from workloads import closed_loop

    episodes, problems = [], []
    measured = 0.0
    while True:
        started = time.perf_counter()
        # Collect the previous episode's garbage now, so its collection
        # pauses do not land inside this episode's timings.
        gc.collect()
        if system is None:
            system = workload.make_system(inputs)
        tracer = LayerTracer() if traced else None
        episode, snapshot = None, None
        try:
            with tracer or contextlib.nullcontext():
                loop = closed_loop(system, inputs.streams)
            problems.extend(loop.errors)
            peers = len(getattr(inputs.environment, "ownership", ()))
            episode = Episode(loop, peers, tracer.recorder if tracer else None)
            episodes.append(episode)
            if not loop.errors:
                episode.counters = system.counters()
                snapshot = system.snapshot()
        except Exception as error:  # a failed read fails the run
            problems.append("{}: {}".format(type(error).__name__, error))
        finally:
            try:
                system.close()
            except Exception as error:  # e.g. a peer that outlived close()
                problems.append("{}: {}".format(type(error).__name__, error))
        if episode is not None:
            episode.peer_cpu_s = getattr(system, "peer_cpu_s", 0.0)
            episode.peer_wall_s = getattr(system, "peer_wall_s", 0.0)
            episode.peer_rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        measured += time.perf_counter() - started
        if snapshot is not None:
            try:
                problem = check(system, snapshot)
            except Exception as error:  # a check that cannot run fails the run
                problem = "{}: {}".format(type(error).__name__, error)
            if problem:
                problems.append("episode {}: {}".format(len(episodes), problem))
        system = None
        if problems or measured >= seconds:
            return episodes, problems


def _end_to_end(episodes, setup_s, peak_rss_mb):
    """The untraced episodes' end-to-end metrics (medians over episodes)."""
    counted = [episode for episode in episodes if episode.counters is not None]
    executions = sum(episode.counters["executions"] for episode in counted)
    commits = sum(episode.counters["commits"] for episode in counted)
    committed = sum(episode.loop.committed for episode in episodes)
    attempted = sum(episode.loop.attempted for episode in episodes)
    median = statistics.median
    return {
        "committed_per_s": median(e.loop.committed / e.loop.wall_s for e in episodes),
        "turnaround_p50_ms": median(1000.0 * _percentile(e.loop.turnarounds, 0.50) for e in episodes),
        "turnaround_p95_ms": median(1000.0 * _percentile(e.loop.turnarounds, 0.95) for e in episodes),
        "executions_per_commit": executions / commits if commits else 0.0,
        "committed_frac": committed / attempted if attempted else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def _layer_metrics(episode, baseline):
    """One traced episode's per-layer metrics."""
    recorder, loop, counters = episode.layers, episode.loop, episode.counters
    self_s = recorder.self_seconds()
    span_calls = {}
    for row in recorder.spans:
        name = recorder.names[int(row[0])]
        span_calls[name] = span_calls.get(name, 0) + 1
    calls = recorder.calls
    commits = max(counters["commits"], 1)
    finds = calls.get("query.find_matches", 0)
    still = calls.get("core.still_holds", 0)
    frames = counters.get("frames", 0)
    peer_cpu_s = episode.peer_cpu_s
    peer_capacity = episode.peer_wall_s * episode.peers
    values = {
        "core.still_holds_calls": still,
        "core.still_holds_true_ratio": recorder.truthy.get("core.still_holds", 0) / still if still else 0.0,
        "core.detect_calls": span_calls.get("core.detect", 0),
        "query.find_matches_calls": finds,
        "query.atom_matches_per_find": calls.get("query.atom_matches", 0) / finds if finds else 0.0,
        "concurrency.track_calls": span_calls.get("concurrency.track", 0),
        "concurrency.steps": counters["steps"],
        "concurrency.steps_per_commit": counters["steps"] / commits,
        "concurrency.aborts": counters["aborts"],
        "concurrency.abort_ratio": counters["aborts"] / commits,
        "concurrency.cascading_abort_requests": counters["cascading_abort_requests"],
        "storage.durable_bytes_per_commit": recorder.lengths.get("storage.durable_bytes", 0) / commits,
        "service.self_s": self_s.get("service", 0.0),
        "service.queue_wait_p50_ms": 1000.0 * counters["queue_wait_p50_s"],
        "codec.bytes_per_commit": counters.get("wire_bytes", 0) / commits,
        "federation.deliveries_deferred": counters.get("deliveries_deferred", 0),
        "federation.frames_per_commit": frames / commits,
        "federation.payloads_per_frame": counters.get("payloads", 0) / frames if frames else 0.0,
        "federation.drain_rounds": counters.get("drain_rounds", 0),
        "federation.drain_ms": 1000.0 * loop.drain_s,
        "federation.peer_cpu_s": peer_cpu_s,
        "federation.peer_busy_frac": peer_cpu_s / peer_capacity if peer_capacity else 0.0,
        "federation.coordinator_cpu_s": loop.cpu_s,
        "trace.overhead": loop.wall_s / statistics.median(e.loop.wall_s for e in baseline),
        "trace.spans": len(recorder.spans),
        "trace.schedule_identical": int(all(
            counters[key] == baseline[0].counters[key] for key in ("steps", "aborts")
        )),
    }
    for name in PER_LAYER:
        if name not in values:  # a layer's self time: "<layer>_s"
            values[name] = self_s.get(name[:-2], 0.0)
    return values


def _per_layer(traced, baseline):
    """Per-layer metrics: the median over traced episodes, metric by metric."""
    per_episode = [_layer_metrics(episode, baseline) for episode in traced]
    return {name: statistics.median(values[name] for values in per_episode) for name in PER_LAYER}


def main(argv=None) -> int:
    arguments = _arguments(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit("perfbench: no src/repro next to perfbench/; run from a full checkout")
    _reexec_with_hash_seed(arguments.seed)
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from workloads import workload

    chosen = workload(arguments.workload)
    units = PER_LAYER if arguments.trace else END_TO_END
    metrics = dict.fromkeys(units, 0.0)
    episodes = []
    try:
        inputs, system, setup_s = _setup(chosen, arguments.size)
    except Exception as error:  # e.g. a peer process that never came up
        problems = ["setup: {}: {}".format(type(error).__name__, error)]
    else:
        # A traced run spends half its time on untraced baseline episodes.
        window = arguments.seconds / 2 if arguments.trace else arguments.seconds
        check = chosen.make_check(inputs)
        episodes, problems = _episodes(chosen, inputs, system, window, False, check)
    if arguments.trace and not problems:
        traced, problems = _episodes(chosen, inputs, None, window, True, check)
        usable = [episode for episode in traced if episode.counters is not None]
        if usable:
            metrics = _per_layer(usable, episodes)
            usable[-1].layers.write_jsonl(
                os.path.join(".perfbench", "spans-{}.jsonl".format(arguments.workload))
            )
        episodes = episodes + traced
    elif not arguments.trace and episodes:
        # ru_maxrss is a high-water mark, so both parts are read at the first
        # episode: before any output check (which builds a reference in this
        # process) could raise it, and over the same peers in every run, not
        # a maximum over however many episodes the run fitted in.
        first = episodes[0]
        peak_rss_mb = (first.rss_kib + first.peer_rss_kib) / 1024.0
        metrics = _end_to_end(episodes, setup_s, peak_rss_mb)
    attempted = sum(episode.loop.attempted for episode in episodes)
    failed = sum(episode.loop.failed for episode in episodes)
    if not attempted:  # nothing ran: count the run as one failed attempt
        attempted = failed = 1

    print(json.dumps({
        "workload": arguments.workload,
        "seed": arguments.seed,
        "seconds": arguments.seconds,
        "trace": arguments.trace,
        "size": arguments.size,
        "episode_wall_s": [round(episode.loop.wall_s, 4) for episode in episodes],
        "turnaround_samples": [len(episode.loop.turnarounds) for episode in episodes],
        "cpu_cores": os.cpu_count(),
        "python": platform.python_version(),
        "source_sha256": _source_digest(),
        "errors": problems[:5],
    }, sort_keys=True))
    for name, value in metrics.items():
        print("{:<40} {:>14.6g} {}".format(name, value, units[name]))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

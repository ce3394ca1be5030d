"""Shared machinery for the benchmark suite.

Each figure of the paper's evaluation is regenerated by one benchmark module.
Building the synthetic environment and running every (mapping count ×
algorithm) cell is the expensive part, so it is done once per workload in a
session-scoped fixture; the individual panel benchmarks then extract and print
their series from the cached result.

The benchmark scale is controlled by the ``REPRO_BENCH_SCALE`` environment
variable: ``tiny`` (CI smoke), ``small`` (default, a few minutes per figure)
or ``paper`` (the full configuration of Section 6 — very slow in pure Python).

Benches record into the tracked ``BENCH_scaling.json`` and
``benchmark_panels.txt`` only when pytest is invoked on paths under
``benchmarks/`` (see :func:`_invoked_on_benchmarks`).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.workload import (
    ExperimentConfig,
    INSERT_WORKLOAD,
    MIXED_WORKLOAD,
    build_environment,
    run_workload_experiment,
)


def bench_config() -> ExperimentConfig:
    """The experiment configuration used by the benchmark suite."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
    if scale == "paper":
        return ExperimentConfig.paper_scale()
    if scale == "tiny":
        return ExperimentConfig.tiny_scale()
    # Three runs per cell keep the default benchmark suite to a few minutes
    # while smoothing single-run noise; EXPERIMENTS.md records the outputs.
    return ExperimentConfig.small_scale().scaled(runs_per_cell=3)


@pytest.fixture(scope="session")
def experiment_config():
    return bench_config()


@pytest.fixture(scope="session")
def environment(experiment_config):
    return build_environment(experiment_config)


@pytest.fixture(scope="session")
def figure3_result(experiment_config, environment):
    """All cells of Figure 3 (the all-insert workload)."""
    return run_workload_experiment(INSERT_WORKLOAD, experiment_config, environment)


@pytest.fixture(scope="session")
def figure4_result(experiment_config, environment):
    """All cells of Figure 4 (the mixed 80/20 workload)."""
    return run_workload_experiment(MIXED_WORKLOAD, experiment_config, environment)


#: The repository root, where the tracked recordings live.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The trajectory file every bench merges its entry into.
RESULT_PATH = os.path.join(ROOT, "BENCH_scaling.json")

#: The regenerated figure panels are also written here so that the numbers
#: survive pytest's output capturing (EXPERIMENTS.md records them from this file).
#: The first panel line of a session truncates the file, so it always holds
#: exactly one run's panels.
PANEL_LOG = os.path.join(ROOT, "benchmark_panels.txt")
_panel_log_started = False

#: Whether this session re-records ``RESULT_PATH`` and ``PANEL_LOG``.
_recording = False


def pytest_configure(config):
    global _recording
    _recording = _invoked_on_benchmarks(config)


def _invoked_on_benchmarks(config) -> bool:
    """``True`` when every path pytest was given lies under ``benchmarks/``.

    Both recordings are tracked files.  A bench run (``pytest benchmarks/``
    or one of its modules, as the perf job runs them) refreshes them; a run
    that merely collects the benches among other tests — the tier-1 run
    from the repository root — prints its numbers and leaves them alone.
    """
    here = os.path.realpath(os.path.dirname(os.path.abspath(__file__)))
    base = str(config.invocation_params.dir)
    paths = [argument.split("::")[0] for argument in config.args]
    return bool(paths) and all(
        os.path.commonpath([os.path.realpath(os.path.join(base, path)), here]) == here
        for path in paths
    )


def record_entries(entries) -> None:
    """Merge *entries* (key -> entry) into ``RESULT_PATH``, keeping other keys."""
    if not _recording:
        return
    recorded = recorded_entries()
    recorded.update(entries)
    with open(RESULT_PATH, "w") as handle:
        json.dump(recorded, handle, indent=2, sort_keys=True)
        handle.write("\n")


def recorded_entries():
    """Everything ``RESULT_PATH`` holds (``{}`` when absent or unreadable)."""
    if not os.path.exists(RESULT_PATH):
        return {}
    try:
        with open(RESULT_PATH) as handle:
            return json.load(handle)
    except ValueError:
        return {}


def _emit(line: str) -> None:
    global _panel_log_started
    print(line)
    if not _recording:
        return
    with open(PANEL_LOG, "a" if _panel_log_started else "w") as handle:
        handle.write(line + "\n")
    _panel_log_started = True


def print_series(title, series):
    """Render one panel as the series of (mappings, value) points."""
    _emit("")
    _emit(title)
    for algorithm, points in sorted(series.items()):
        rendered = ", ".join("({}, {:.1f})".format(count, value) for count, value in points)
        _emit("  {:<8} {}".format(algorithm, rendered))


def print_slowdown(title, points):
    _emit("")
    _emit(title)
    for count, factor in points:
        _emit("  {:>3} mappings: {:.2f}x".format(count, factor))

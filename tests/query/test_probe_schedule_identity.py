"""Selective existence probes must leave every schedule bit-identical.

Bounded ``find_matches`` calls (existence checks) probe each atom's most
selective bound position; full enumeration keeps the first-bound probe,
because its candidate order fixes the order of violations and witnesses and
so the whole schedule.  This differential runs the Figure 3 insert mix and
the Figure 4 mixed workload at 20 mappings under NAIVE, COARSE and PRECISE
twice: as shipped, and with every probe replaced by the first-bound oracle
below (the matcher before selective probes existed).  Read logs, cost units,
aborts, cascading abort requests and the committed database (null labels
included) must agree exactly.

On these workloads a selective probe in full enumeration happens to leave
the schedule unchanged as well, so the last test pins the enumeration order
itself on a store whose two bound buckets iterate their shared rows in
opposite orders.
"""

from __future__ import annotations

from typing import Iterable, List

import pytest

import repro.query.compiled as compiled
from repro.concurrency.dependencies import make_tracker
from repro.concurrency.optimistic import OptimisticScheduler
from repro.concurrency.policies import make_policy
from repro.concurrency.readlog import ReadLog
from repro.core.atoms import Atom
from repro.core.oracle import RandomOracle
from repro.core.schema import DatabaseSchema
from repro.core.terms import Constant, NullFactory, Variable, is_variable
from repro.core.tuples import Tuple, make_tuple
from repro.core.writes import insert
from repro.storage.interface import DatabaseView
from repro.storage.versioned import VersionedDatabase
from repro.workload.experiment import (
    ExperimentConfig,
    INSERT_WORKLOAD,
    MIXED_WORKLOAD,
    build_environment,
    build_workload,
)
from repro.workload.mapping_gen import mapping_prefix

MAPPINGS = 20
#: The benchmark suite's three runs per cell, seeded as the experiment grid does.
RUNS = 3


def first_bound_candidates(
    atom: Atom, assignment, view: DatabaseView
) -> Iterable[Tuple]:
    """The oracle: probe the first bound position's bucket, whatever its size."""
    for position, term in enumerate(atom.terms):
        value = assignment.get(term) if is_variable(term) else term
        if value is not None:
            return view.tuples_with_value(atom.relation, position, value)
    return view.tuples(atom.relation)


@pytest.fixture(scope="module")
def environment():
    return build_environment(ExperimentConfig.small_scale())


def _use_oracle(monkeypatch) -> None:
    monkeypatch.setattr(compiled, "_candidate_tuples", first_bound_candidates)
    monkeypatch.setattr(compiled, "_selective_candidates", first_bound_candidates)


def _trace(monkeypatch, environment, workload, algorithm) -> List:
    """Everything schedule-dependent about the grid runs of one cell."""
    reads: List = []
    record = ReadLog.record

    def logged(self, reader, query, dependencies):
        reads.append((reader, repr(query), tuple(sorted(dependencies))))
        return record(self, reader, query, dependencies)

    monkeypatch.setattr(ReadLog, "record", logged)
    runs = []
    config = environment.config
    for run_index in range(RUNS):
        del reads[:]
        # One grid run, as run_cell_once builds it, keeping the scheduler.
        seed = config.seed + 1000 * run_index + MAPPINGS
        store = VersionedDatabase(environment.schema)
        store.load_initial(environment.initial)
        scheduler = OptimisticScheduler(
            store=store,
            mappings=mapping_prefix(environment.mappings, MAPPINGS),
            tracker=make_tracker(algorithm),
            oracle=RandomOracle(seed=seed),
            policy=make_policy(config.policy),
            null_factory=NullFactory.avoiding_view(environment.initial, prefix="g"),
            max_total_steps=config.max_total_steps,
        )
        scheduler.submit_all(build_workload(environment, workload, seed))
        counters = scheduler.run().as_dict()
        for timing in ("wall_seconds", "per_update_seconds"):
            counters.pop(timing, None)
        committed = scheduler.final_database().to_dict()
        snapshot = sorted(repr(row) for rows in committed.values() for row in rows)
        runs.append((list(reads), counters, snapshot))
    monkeypatch.setattr(ReadLog, "record", record)
    return runs


@pytest.mark.parametrize("workload", [INSERT_WORKLOAD, MIXED_WORKLOAD])
@pytest.mark.parametrize("algorithm", ["NAIVE", "COARSE", "PRECISE"])
def test_selective_probes_keep_the_schedule(monkeypatch, environment, workload, algorithm):
    shipped = _trace(monkeypatch, environment, workload, algorithm)
    _use_oracle(monkeypatch)
    oracle = _trace(monkeypatch, environment, workload, algorithm)
    for (reads, counters, snapshot), (oracle_reads, oracle_counters, oracle_snapshot) in zip(
        shipped, oracle
    ):
        assert reads == oracle_reads
        assert counters == oracle_counters
        assert snapshot == oracle_snapshot


def test_full_enumeration_keeps_the_first_bound_order(monkeypatch):
    store = VersionedDatabase(DatabaseSchema.from_dict({"R": ["a", "b", "c"]}))
    # Tids 1..20 all sit in the ("R", 0, a) bucket; only 3 and 17 sit in the
    # small ("R", 1, b) bucket, whose two-slot set iterates 17 before 3.
    for tid in range(1, 21):
        middle = "b" if tid in (3, 17) else "c"
        store.apply_write(insert(make_tuple("R", "a", middle, str(tid))), priority=1)
    view = store.view_for(1)
    a, b = Constant("a"), Constant("b")
    first_bound = [row for row in view.tuples_with_value("R", 0, a) if row[1] == b]
    assert first_bound != list(view.tuples_with_value("R", 1, b))
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    conjunction = compiled.CompiledConjunction([Atom("R", (x, y, z))])
    seed = {x: a, y: b}
    shipped = conjunction.find_matches(view, seed)
    assert [witness[0] for _, witness in shipped] == first_bound
    _use_oracle(monkeypatch)
    assert conjunction.find_matches(view, seed) == shipped

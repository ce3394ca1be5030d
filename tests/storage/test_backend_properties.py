"""Randomized histories: the index-backed reads agree with brute force.

Each history applies inserts, deletes and modifications on behalf of one
open update at a time; a step may also commit the update or roll it back
(either way the next writes get the next priority, as a restart does), or
compact everything below the open update.
:class:`MemoryDatabase` replays the same writes as the reference state.
After every step the multiversion store and the reference are checked:

* ``value_count`` bounds the visible ``tuples_with_value`` hits from above
  on :class:`VersionedView` and equals them on :class:`MemoryDatabase`;
* ``contains`` equals a scan of the visible tuples;
* bounded ``find_matches`` / ``exists_match`` answer as they do over the
  :class:`DatabaseView` default implementations (no index, no bucket sizes).

The history ends with a durable replay: a snapshot at the committed
watermark plus the redo log reproduces the open update's view.
"""

from __future__ import annotations

import tempfile
from typing import Iterator, List

from hypothesis import example, given, settings, strategies as st

from repro.core.atoms import Atom
from repro.core.schema import DatabaseSchema
from repro.core.terms import Constant, LabeledNull, Variable
from repro.core.tuples import Tuple
from repro.core.writes import delete, insert, modify
from repro.query.compiled import CompiledConjunction
from repro.storage.durable import WriteLogSegments
from repro.storage.interface import DatabaseView
from repro.storage.memory import MemoryDatabase
from repro.storage.versioned import LATEST, VersionedDatabase

SCHEMA = DatabaseSchema.from_dict({"R": ["a", "b"], "S": ["x"]})
CONSTANTS = [Constant(name) for name in ("a", "b", "c")]
NULLS = [LabeledNull(name) for name in ("N1", "N2")]
TERMS = CONSTANTS + NULLS

X, Y, Z = Variable("x"), Variable("y"), Variable("z")

#: (conjunction, seed) pairs whose bounded matches are compared.
QUERIES = [
    (CompiledConjunction([Atom("R", (X, Y))]), {X: CONSTANTS[0]}),
    (CompiledConjunction([Atom("R", (X, Y))]), {X: CONSTANTS[0], Y: CONSTANTS[1]}),
    (CompiledConjunction([Atom("R", (X, CONSTANTS[1]))]), {}),
    (CompiledConjunction([Atom("R", (X, Y)), Atom("S", (Y,))]), {X: CONSTANTS[2]}),
    (CompiledConjunction([Atom("R", (X, Y)), Atom("R", (Y, Z))]), {Z: CONSTANTS[0]}),
    (CompiledConjunction([Atom("R", (X, Y)), Atom("R", (Y, X))]), {}),
    (CompiledConjunction([Atom("S", (X,)), Atom("R", (X, NULLS[0]))]), {}),
]


class DefaultsView(DatabaseView):
    """*inner* seen only through the abstract methods: every other read
    runs the :class:`DatabaseView` default (scans, no bucket sizes)."""

    def __init__(self, inner: DatabaseView):
        self._inner = inner

    @property
    def schema(self) -> DatabaseSchema:
        return self._inner.schema

    def relations(self) -> List[str]:
        return self._inner.relations()

    def tuples(self, relation: str) -> Iterator[Tuple]:
        return self._inner.tuples(relation)

    def contains(self, row: Tuple) -> bool:
        return row in set(self._inner.tuples(row.relation))


rows = st.one_of(
    st.builds(lambda a, b: Tuple("R", (a, b)), st.sampled_from(TERMS), st.sampled_from(TERMS)),
    st.builds(lambda a: Tuple("S", (a,)), st.sampled_from(TERMS)),
)
#: Rows holding a given null: what a null replacement modifies.
rows_with_null = st.sampled_from(NULLS).flatmap(
    lambda null: st.sampled_from(
        [Tuple("S", (null,))]
        + [Tuple("R", (term, null)) for term in TERMS]
        + [Tuple("R", (null, term)) for term in TERMS]
    ).map(lambda row: (row, null))
)
steps = st.one_of(
    st.tuples(st.just("insert"), rows),
    st.tuples(st.just("delete"), rows),
    st.builds(
        lambda target, value: ("modify", target[0], target[1], value),
        rows_with_null,
        st.sampled_from(CONSTANTS),
    ),
    st.tuples(st.just("commit")),
    st.tuples(st.just("rollback")),
    st.tuples(st.just("compact")),
)


def _apply_reference(reference: MemoryDatabase, write) -> None:
    if write.old_row is None:
        (reference.insert if write.kind.value == "insert" else reference.delete)(write.row)
    elif reference.contains(write.old_row):
        reference.delete(write.old_row)
        reference.insert(write.row)


def _check_reads(view: DatabaseView, reference: MemoryDatabase) -> None:
    scanned = {name: set(view.tuples(name)) for name in view.relations()}
    assert scanned == {name: set(reference.tuples(name)) for name in reference.relations()}
    for name, arity in (("R", 2), ("S", 1)):
        for position in range(arity):
            for value in TERMS:
                hits = list(view.tuples_with_value(name, position, value))
                assert view.value_count(name, position, value) >= len(hits)
                assert reference.value_count(name, position, value) == len(
                    list(reference.tuples_with_value(name, position, value))
                )
        for a in TERMS:
            for b in TERMS if arity == 2 else (None,):
                row = Tuple(name, (a, b) if arity == 2 else (a,))
                assert view.contains(row) == (row in scanned[name])
    oracle = DefaultsView(view)
    for conjunction, seed in QUERIES:
        expected = conjunction.exists_match(oracle, seed)
        assert conjunction.exists_match(view, seed) == expected
        assert conjunction.exists_match(reference, seed) == expected
        found = conjunction.find_matches(view, seed, limit=1)
        assert bool(found) == expected
        for assignment, witness in found:
            assert all(oracle.contains(row) for row in witness)
            assert all(assignment[variable] == value for variable, value in seed.items())


#: A modification onto a row that is already visible, then a delete of it:
#: two identities hold the row, and the delete must hide both.
COLLISION = [
    ("insert", Tuple("R", (CONSTANTS[0], CONSTANTS[1]))),
    ("insert", Tuple("R", (CONSTANTS[0], NULLS[0]))),
    ("modify", Tuple("R", (CONSTANTS[0], NULLS[0])), NULLS[0], CONSTANTS[1]),
    ("commit",),
    ("compact",),
    ("delete", Tuple("R", (CONSTANTS[0], CONSTANTS[1]))),
]


@settings(max_examples=60, deadline=None)
@given(st.lists(steps, max_size=30))
@example(COLLISION)
def test_versioned_reads_match_brute_force_and_reference(history):
    store = VersionedDatabase(SCHEMA)
    reference = MemoryDatabase(SCHEMA)
    with tempfile.TemporaryDirectory() as directory:
        snapshot = directory + "/snapshot.json"
        store.snapshot_to(snapshot, 0)
        store.attach_segments(WriteLogSegments(directory + "/segments"))
        priority, committed_state, watermark = 1, MemoryDatabase(SCHEMA), 0
        for step in history:
            kind = step[0]
            if kind == "commit":
                committed_state = reference.copy()
                priority += 1
            elif kind == "rollback":
                store.rollback(priority)
                reference = committed_state.copy()
                priority += 1
            elif kind == "compact":
                if priority - 1 > watermark:
                    watermark = priority - 1
                    store.compact_below(watermark)
                    store.snapshot_to(snapshot, watermark)
            else:
                row = step[1]
                if kind == "insert":
                    write = insert(row)
                elif kind == "delete":
                    write = delete(row)
                else:
                    null, value = step[2], step[3]
                    write = modify(row, row.substitute({null: value}), null, value)
                store.apply_write(write, priority)
                _apply_reference(reference, write)
            _check_reads(store.view_for(priority), reference)
            _check_reads(store.view_for(LATEST), reference)
        restored, restored_watermark = VersionedDatabase.restore_from(snapshot)
        assert restored_watermark == watermark
        for entry in WriteLogSegments(directory + "/segments").replay():
            restored.apply_write(entry.write, entry.priority)
        _check_reads(restored.view_for(priority), reference)

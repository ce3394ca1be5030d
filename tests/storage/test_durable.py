"""Durable mode: codec-encoded segments + snapshots reproduce the store.

The contract under test: at any moment, ``snapshot_to(path, watermark)`` plus
replaying the surviving write-log segments onto the restored snapshot yields
a store whose every view matches the original — across rollbacks (tombstoned
priorities filtered), commit-time compaction (covered segment files deleted,
watermark recorded) and process "restarts" (a fresh
:class:`~repro.storage.durable.WriteLogSegments` over the same directory).
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.schema import DatabaseSchema
from repro.core.terms import Constant, LabeledNull
from repro.core.tuples import Tuple, make_tuple
from repro.core.update import InsertOperation
from repro.core.writes import delete, insert
from repro.fixtures.genealogy import genealogy_repository
from repro.service.repository import RepositoryService
from repro.storage.durable import WriteLogSegments, read_snapshot, write_snapshot
from repro.storage.interface import dump_sorted
from repro.storage.memory import FrozenDatabase
from repro.storage.versioned import LATEST, VersionedDatabase

SCHEMA = DatabaseSchema.from_dict({"R": ["a", "b"], "S": ["x"]})


def _initial():
    return FrozenDatabase(
        SCHEMA,
        {
            "R": frozenset({Tuple("R", ["r1", "r2"]), Tuple("R", ["r3", LabeledNull("n1")])}),
            "S": frozenset({Tuple("S", ["s1"])}),
        },
    )


def _store(tmp_path, name="segments"):
    store = VersionedDatabase(SCHEMA)
    store.load_initial(_initial())
    segments = WriteLogSegments(str(tmp_path / name), max_entries_per_segment=4)
    store.attach_segments(segments)
    return store, segments


def _replay_onto(snapshot_path, segments_dir):
    """A 'restarted process': restore the snapshot, replay fresh segments."""
    store, watermark = VersionedDatabase.restore_from(snapshot_path)
    reopened = WriteLogSegments(segments_dir)
    for entry in reopened.replay():
        store.apply_write(entry.write, entry.priority)
    return store, watermark


def _same_contents(a, b, priority=LATEST):
    return dump_sorted(a.view_for(priority)) == dump_sorted(b.view_for(priority))


def test_snapshot_round_trip():
    import tempfile

    path = os.path.join(tempfile.mkdtemp(), "snap.json")
    store = VersionedDatabase(SCHEMA)
    store.load_initial(_initial())
    store.apply_write(insert(Tuple("S", ["s2"])), priority=1)
    store.snapshot_to(path, 1)
    schema, frozen, watermark = read_snapshot(path)
    assert watermark == 1
    assert schema.relation_names() == SCHEMA.relation_names()
    assert set(frozen.tuples("S")) == {Tuple("S", ["s1"]), Tuple("S", ["s2"])}
    restored, restored_watermark = VersionedDatabase.restore_from(path)
    assert restored_watermark == 1
    assert dump_sorted(restored.latest_view()) == dump_sorted(store.view_for(1))


def test_segments_replay_applied_writes(tmp_path):
    store, _ = _store(tmp_path)
    store.apply_writes([insert(Tuple("S", ["w1"])), insert(Tuple("S", ["w2"]))], 1)
    store.apply_write(delete(Tuple("S", ["s1"])), 2)
    replayed = WriteLogSegments(str(tmp_path / "segments")).replay()
    assert [entry.write.describe() for entry in replayed] == [
        logged.write.describe() for logged in store.write_log()
    ]
    assert [entry.seq for entry in replayed] == [e.seq for e in store.write_log()]


def test_rollback_tombstones_filter_replay(tmp_path):
    store, _ = _store(tmp_path)
    store.apply_writes([insert(Tuple("S", ["keep"]))], 1)
    store.apply_writes([insert(Tuple("S", ["drop"])), insert(Tuple("R", ["q", "q"]))], 2)
    store.rollback(2)
    replayed = WriteLogSegments(str(tmp_path / "segments")).replay()
    assert {entry.priority for entry in replayed} == {1}


def test_compaction_drops_covered_segments_and_records_watermark(tmp_path):
    store, segments = _store(tmp_path)
    for priority in range(1, 9):
        store.apply_writes([insert(Tuple("S", ["v{}".format(priority)]))], priority)
    before = len(segments.segment_indexes())
    assert before >= 2  # small segments roll over
    store.compact_below(6)
    reopened = WriteLogSegments(str(tmp_path / "segments"))
    assert reopened.watermark == 6
    # Only entries above the watermark replay; covered files are gone.
    assert {entry.priority for entry in reopened.replay()} == {7, 8}
    assert len(reopened.segment_indexes()) < before


@pytest.mark.parametrize("seed", range(5))
def test_randomized_snapshot_plus_replay_reproduces_the_store(tmp_path, seed):
    """The durability contract, differentially, under a random history."""
    rng = random.Random(seed)
    store, _ = _store(tmp_path, name="segments{}".format(seed))
    committed = 0
    live_rows = [Tuple("S", ["s1"])]
    for priority in range(1, 25):
        action = rng.random()
        writes = []
        row = Tuple("S", ["t{}_{}".format(seed, priority)])
        if action < 0.6 or not live_rows:
            writes.append(insert(row))
            live_rows.append(row)
        else:
            victim = rng.choice(live_rows)
            writes.append(delete(victim))
        if rng.random() < 0.3:
            writes.append(insert(Tuple("R", ["r{}".format(priority), row.values[0]])))
        store.apply_writes(writes, priority)
        if rng.random() < 0.2:
            store.rollback(priority)
            if insert(row) in [w for w in writes]:
                if row in live_rows:
                    live_rows.remove(row)
        elif rng.random() < 0.3:
            committed = priority
            store.compact_below(committed)
    snapshot_path = str(tmp_path / "snap{}.json".format(seed))
    # Snapshot at the store's compaction watermark (the service always does).
    store.snapshot_to(snapshot_path, committed)
    rebuilt, _ = _replay_onto(snapshot_path, str(tmp_path / "segments{}".format(seed)))
    assert _same_contents(rebuilt, store)


def test_unknown_segment_version_is_rejected(tmp_path):
    directory = tmp_path / "bad"
    directory.mkdir()
    with open(directory / "segment-00000001.log", "w") as handle:
        handle.write('{"v": 99, "t": "write", "e": {}}\n')
    from repro.codec import CodecError

    with pytest.raises(CodecError, match="unsupported durable-format version"):
        WriteLogSegments(str(directory))


def test_snapshot_file_rejects_wrong_kind(tmp_path):
    from repro.codec import CodecError
    from repro.codec.wire import dumps

    path = tmp_path / "notsnap.json"
    path.write_bytes(dumps({"v": 1, "t": "something-else"}) + b"\n")
    with pytest.raises(CodecError, match="not a snapshot file"):
        read_snapshot(str(path))


def test_torn_tail_of_newest_segment_is_truncated_on_reopen(tmp_path):
    """A crash mid-append leaves a torn final record; reopening drops it."""
    wal = tmp_path / "wal"
    database, mappings = genealogy_repository()
    service = RepositoryService(database.snapshot(), mappings, durable_dir=str(wal))
    session = service.open_session("writer")
    for number in range(20):
        service.submit(
            session.session_id,
            InsertOperation(make_tuple("Person", "p{}".format(number))),
        )
    service.run_until_blocked()
    newest = max(wal.glob("segment-*.log"))
    data = newest.read_bytes()
    complete = data[: data.rfind(b"\n", 0, len(data) - 1) + 1]
    # The same log with its final record cleanly absent: what must replay.
    clean = tmp_path / "clean"
    clean.mkdir()
    for path in wal.iterdir():
        (clean / path.name).write_bytes(path.read_bytes())
    (clean / newest.name).write_bytes(complete)
    expected = WriteLogSegments(str(clean)).replay()
    assert expected

    newest.write_bytes(data[:-7])
    reopened = WriteLogSegments(str(wal))
    assert reopened.torn_records == 1
    assert newest.read_bytes() == complete
    assert [entry.seq for entry in reopened.replay()] == [
        entry.seq for entry in expected
    ]
    # Appends resume on a record boundary.
    reopened.record_rollback(99)
    assert WriteLogSegments(str(wal)).torn_records == 0


def test_undecodable_final_record_counts_as_torn(tmp_path):
    store, _ = _store(tmp_path)
    store.apply_writes([insert(Tuple("S", ["w1"])), insert(Tuple("S", ["w2"]))], 1)
    directory = tmp_path / "segments"
    newest = max(directory.glob("segment-*.log"))
    newest.write_bytes(newest.read_bytes() + b'{"v": 1, "t"\n')
    reopened = WriteLogSegments(str(directory))
    assert reopened.torn_records == 1
    assert [entry.seq for entry in reopened.replay()] == [
        entry.seq for entry in store.write_log()
    ]


@pytest.mark.parametrize("where", ["mid-segment", "older-segment-tail"])
def test_bad_record_outside_the_newest_tail_still_raises(tmp_path, where):
    store, segments = _store(tmp_path)
    for priority in range(1, 7):
        store.apply_writes([insert(Tuple("S", ["v{}".format(priority)]))], priority)
    assert len(segments.segment_indexes()) >= 2
    directory = tmp_path / "segments"
    if where == "mid-segment":
        segment = max(directory.glob("segment-*.log"))
        first, second = segment.read_bytes().splitlines(keepends=True)
        segment.write_bytes(first[:-7] + b"\n" + second)
    else:
        segment = min(directory.glob("segment-*.log"))
        segment.write_bytes(segment.read_bytes()[:-7])
    with pytest.raises(ValueError):
        WriteLogSegments(str(directory))

"""SQLite bulk-load benchmark: the batched ``load_from`` against a per-row loop.

:class:`~repro.storage.sqlite_backend.SQLiteDatabase` loads a repository in
one transaction with one ``executemany`` per relation.  This benchmark pins
that against a faithful replica of the historical insert-per-row-with-commit
loop on a file-backed database, asserts both loads store identical contents,
and — under ``REPRO_BENCH_STRICT=1`` — that the batched load is at least
``MIN_LOAD_SPEEDUP`` times faster.  Results land under the ``sql_chase`` key
of ``BENCH_scaling.json`` (tracked by ``compare_bench.py``).
"""

from __future__ import annotations

import os
import sqlite3
import time

from repro.codec.rows import decode_row, encode_row
from repro.query.sql import create_table_statement, quote_identifier
from repro.storage.sqlite_backend import SQLiteDatabase
from repro.workload.experiment import ExperimentConfig, build_environment

from conftest import record_entries

#: Store size (initial tuples requested from the generator) per bench scale.
TUPLE_COUNTS = {"tiny": 500, "small": 1500, "paper": 4000}

#: Required speedup under ``REPRO_BENCH_STRICT=1``; the tiny CI smoke run
#: keeps a soft bar because sub-10ms timings are noisy.
MIN_LOAD_SPEEDUP = {"tiny": 1.0, "small": 1.5, "paper": 1.5}


def _legacy_per_row_load(schema, view, path):
    """Faithful replica of the pre-rework bulk load: per-row existence check,
    per-row INSERT, per-row ``commit()`` on a deferred-transaction connection.
    """
    connection = sqlite3.connect(path)
    connection.execute("PRAGMA synchronous = OFF")
    for relation in schema.relation_names():
        connection.execute(create_table_statement(schema, relation))
    connection.commit()
    started = time.perf_counter()
    for relation in schema.relation_names():
        attributes = schema.relation(relation).attributes
        predicate = " AND ".join(
            "{} = ?".format(quote_identifier(attribute)) for attribute in attributes
        )
        placeholders = ", ".join("?" for _ in attributes)
        probe = "SELECT 1 FROM {} WHERE {} LIMIT 1".format(
            quote_identifier(relation), predicate
        )
        statement = "INSERT INTO {} VALUES ({})".format(
            quote_identifier(relation), placeholders
        )
        for row in view.tuples(relation):
            encoded = encode_row(row)
            if connection.execute(probe, encoded).fetchone() is None:
                connection.execute(statement, encoded)
                connection.commit()
    elapsed = time.perf_counter() - started
    return connection, elapsed


def _bench_bulk_load(schema, view, tmp_path):
    legacy_connection, per_row_seconds = _legacy_per_row_load(
        schema, view, str(tmp_path / "legacy.db")
    )
    batched = SQLiteDatabase(schema, path=str(tmp_path / "batched.db"))
    started = time.perf_counter()
    batched.load_from(view)
    batched_seconds = time.perf_counter() - started
    rows = 0
    contents_match = True
    for relation in schema.relation_names():
        batched_rows = frozenset(batched.tuples(relation))
        legacy_rows = frozenset(
            decode_row(relation, fields)
            for fields in legacy_connection.execute(
                "SELECT * FROM {}".format(quote_identifier(relation))
            )
        )
        rows += len(batched_rows)
        if legacy_rows != batched_rows:
            contents_match = False
    legacy_connection.close()
    batched.close()
    return {
        "rows": rows,
        "per_row_seconds": per_row_seconds,
        "batched_seconds": batched_seconds,
        "speedup": per_row_seconds / max(batched_seconds, 1e-9),
        "contents_match": contents_match,
    }


def test_sql_bulk_load(tmp_path):
    scale = os.environ.get("REPRO_BENCH_SCALE", "small").lower()
    strict = os.environ.get("REPRO_BENCH_STRICT") == "1"
    config = ExperimentConfig.small_scale().scaled(
        num_initial_tuples=TUPLE_COUNTS.get(scale, TUPLE_COUNTS["small"])
    )
    environment = build_environment(config)

    bulk_load = _bench_bulk_load(environment.schema, environment.initial, tmp_path)
    assert bulk_load["contents_match"]
    report = {"scale": scale, "store_rows": bulk_load["rows"], "bulk_load": bulk_load}

    record_entries({"sql_chase": report})

    print(
        "\nSQLite bulk load {} rows: per-row {:.3f}s vs batched {:.3f}s "
        "({:.1f}x)".format(
            bulk_load["rows"],
            bulk_load["per_row_seconds"],
            bulk_load["batched_seconds"],
            bulk_load["speedup"],
        )
    )

    if strict:
        assert bulk_load["speedup"] >= MIN_LOAD_SPEEDUP.get(scale, 1.5), (
            "batched load_from must be at least {}x faster than the per-row "
            "commit loop (measured {:.1f}x)".format(
                MIN_LOAD_SPEEDUP.get(scale, 1.5), bulk_load["speedup"]
            )
        )

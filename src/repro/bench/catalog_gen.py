"""Seeded wide-catalog generator for enterprise-scale matching benchmarks.

The demo domains have 3–6 tables each; the deployment reality both
surveys flag (§7) is catalogs of *hundreds* of tables with heavily
overlapping column vocabularies (every table has a ``name``, a ``city``,
a ``date``...).  :func:`build_wide_catalog` synthesizes that shape
deterministically by cloning and permuting the existing domains:

- domains are cycled round-robin; replica ``r`` rebuilds domain
  ``r mod len(domains)`` with seed ``seed + r`` (so row contents vary),
- every cloned table is renamed with a ``_rNNN`` replica suffix while
  **column names stay identical across replicas** — the overlapping-
  vocabulary property that floods span matching with candidates,
- schema/column synonyms are kept in full on replica 0 and sampled down
  on later replicas (a seeded permutation, so clones are near- but not
  exact duplicates of each other's vocabulary),
- foreign keys are remapped onto the suffixed names; edges whose
  endpoint fell past the width cutoff are dropped.

The result is a pure function of ``(width, seed, scale)``, which is what
lets :class:`~repro.bench.domains.ContextSpec` rebuild an identical
catalog for every serving worker.
"""

from __future__ import annotations

import random
from typing import List

from repro.sqldb import Database
from repro.sqldb.schema import Column, TableSchema

from .domains import BUILDERS, build_domain

#: sampling probability for a synonym surviving onto a clone (replica > 0)
_SYNONYM_KEEP = 0.5


def build_wide_catalog(
    width: int,
    seed: int = 0,
    scale: float = 0.25,
    name: str = "widecat",
) -> Database:
    """A deterministic database with exactly ``width`` tables.

    ``scale`` is forwarded to the underlying domain builders (the default
    keeps per-table row counts small so a 250-table catalog stays cheap
    to build while the *matching* cost — the thing under benchmark —
    scales with catalog width).
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    db = Database(f"{name}{width}")
    names = sorted(BUILDERS)
    rng = random.Random(seed)
    replica = 0
    while db.catalog_version < width:
        domain = names[replica % len(names)]
        source = build_domain(domain, seed=seed + replica, scale=scale)
        _clone_replica(db, source, replica, width, rng)
        replica += 1
    return db


def _clone_replica(
    db: Database, source: Database, replica: int, width: int, rng: random.Random
) -> None:
    suffix = f"_r{replica:03d}"
    tables = list(source.tables)
    # permute table order per replica so the width cutoff truncates a
    # different corner of each domain copy
    rng.shuffle(tables)
    cloned = set()
    for table in tables:
        if db.catalog_version >= width:
            break
        schema = table.schema
        new_schema = TableSchema(
            f"{schema.name}{suffix}",
            [
                Column(
                    column.name,
                    column.dtype,
                    nullable=column.nullable,
                    primary_key=column.primary_key,
                    synonyms=_sample_synonyms(column.synonyms, replica, rng),
                )
                for column in schema
            ],
            synonyms=_sample_synonyms(schema.synonyms, replica, rng),
        )
        db.create_table(new_schema)
        db.insert_many(new_schema.name, table.rows)
        cloned.add(schema.name.lower())
    for fk in source.foreign_keys:
        if fk.src_table.lower() in cloned and fk.dst_table.lower() in cloned:
            db.add_foreign_key(
                f"{fk.src_table}{suffix}",
                fk.src_column,
                f"{fk.dst_table}{suffix}",
                fk.dst_column,
            )


def _sample_synonyms(
    synonyms: tuple, replica: int, rng: random.Random
) -> List[str]:
    """Replica 0 keeps the full vocabulary; clones keep a seeded sample."""
    if replica == 0:
        return list(synonyms)
    return [s for s in synonyms if rng.random() < _SYNONYM_KEEP]

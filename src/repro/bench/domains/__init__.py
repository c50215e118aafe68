"""Benchmark domain databases.

Six deterministic domains standing in for the multi-domain spread of
Spider (200 databases over 138 domains — §6 of the survey): retail, HR,
healthcare, movies, finance, geography and university.  Each module's
``build(seed, scale)`` returns a fresh :class:`~repro.sqldb.Database`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.core.pipeline import NLIDBContext
from repro.sqldb import Database

from . import finance, geo, healthcare, hr, movies, retail, university

BUILDERS: Dict[str, Callable[..., Database]] = {
    "retail": retail.build,
    "hr": hr.build,
    "healthcare": healthcare.build,
    "movies": movies.build,
    "finance": finance.build,
    "geo": geo.build,
    "university": university.build,
}


def build_domain(name: str, seed: int = 0, scale: float = 1.0) -> Database:
    """Build one domain database by name."""
    builder = BUILDERS.get(name.lower())
    if builder is None:
        raise KeyError(f"unknown domain {name!r}; have {sorted(BUILDERS)}")
    return builder(seed=seed, scale=scale)


@dataclass(frozen=True)
class ContextSpec:
    """Recipe for an :class:`NLIDBContext` over a domain or wide catalog.

    Domain databases are deterministic functions of ``(name, seed,
    scale)``, so every :meth:`build` yields an identical, independent
    context; the serving front's workers each build their own from one
    spec.  A non-zero ``catalog_width`` swaps the single domain for the
    seeded wide catalog of :func:`repro.bench.catalog_gen.build_wide_catalog`.
    """

    domain: str
    seed: int = 0
    scale: float = 1.0
    #: 0 = build ``domain`` as-is; N ≥ 1 = build an N-table wide catalog
    catalog_width: int = 0
    use_schema_index: bool = True

    def build(self) -> NLIDBContext:
        """Construct the context this spec describes."""
        if self.catalog_width:
            from repro.bench.catalog_gen import build_wide_catalog

            database = build_wide_catalog(
                self.catalog_width, seed=self.seed, scale=self.scale
            )
        else:
            database = build_domain(self.domain, seed=self.seed, scale=self.scale)
        return NLIDBContext(database, use_schema_index=self.use_schema_index)


def all_domains(seed: int = 0, scale: float = 1.0) -> Dict[str, Database]:
    """Build every domain once."""
    return {name: builder(seed=seed, scale=scale) for name, builder in BUILDERS.items()}


def domain_names() -> List[str]:
    """Sorted list of available domain names."""
    return sorted(BUILDERS)

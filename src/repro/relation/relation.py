"""In-memory relation container used as input to all cube algorithms.

A :class:`Relation` is a schema plus a list of rows.  Rows are plain tuples
``(a1, ..., ad, b)`` — dimension values followed by the numeric measure.
The container is deliberately simple: the distributed algorithms split it
into one input chunk per simulated machine (:meth:`Relation.split`), and
the sequential algorithms iterate it directly.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Iterable, Iterator, List, Optional, Tuple

from . import lattice
from .schema import Schema

Row = Tuple


class Relation:
    """A named relation ``R(A1..Ad, B)``.

    Parameters
    ----------
    schema:
        The relation's :class:`~repro.relation.schema.Schema`.
    rows:
        Iterable of row tuples; materialized into a list.
    validate:
        When true (default), every row is checked against the schema.  Large
        generated datasets can skip validation for speed.
    name:
        Optional display name used in reports.
    """

    __slots__ = ("schema", "rows", "name")

    def __init__(
        self,
        schema: Schema,
        rows: Iterable[Row] = (),
        validate: bool = True,
        name: str = "R",
    ):
        self.schema = schema
        self.rows: List[Row] = [tuple(row) for row in rows]
        self.name = name
        if validate:
            for row in self.rows:
                schema.validate_row(row)

    # -- basic container protocol -------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __getitem__(self, index):
        return self.rows[index]

    def __repr__(self) -> str:
        return (
            f"Relation({self.name!r}, {len(self.rows)} rows, "
            f"{self.schema.num_dimensions} dims)"
        )

    # -- cube-oriented helpers ----------------------------------------------

    @property
    def num_dimensions(self) -> int:
        return self.schema.num_dimensions

    def measures(self) -> Iterator[float]:
        """Iterate over the measure column."""
        return (row[-1] for row in self.rows)

    def group_sizes(self, mask: int) -> dict:
        """``|set(g)|`` for every c-group ``g`` of cuboid ``mask``, in
        first-seen order."""
        return Counter(
            lattice.project_rows(self.rows, mask, self.schema.num_dimensions)
        )

    def sample(
        self,
        probability: float,
        rng: Optional[random.Random] = None,
    ) -> List[Row]:
        """Bernoulli sample: each row kept independently with ``probability``.

        This is the map-phase of Algorithm 2.  A caller-supplied ``rng``
        makes sampling reproducible.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability {probability} outside [0, 1]")
        rng = rng or random.Random()
        return [row for row in self.rows if rng.random() <= probability]

    def split(self, num_parts: int) -> List[List[Row]]:
        """Split rows into ``num_parts`` nearly-equal chunks (mapper inputs).

        Mirrors the paper's assumption that the ``n`` input tuples are
        equally loaded onto the ``k`` machines.
        """
        if num_parts <= 0:
            raise ValueError("num_parts must be positive")
        chunks: List[List[Row]] = [[] for _ in range(num_parts)]
        base, extra = divmod(len(self.rows), num_parts)
        start = 0
        for i in range(num_parts):
            end = start + base + (1 if i < extra else 0)
            chunks[i] = self.rows[start:end]
            start = end
        return chunks

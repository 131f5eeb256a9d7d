"""File interchange: relations, cubes, and sketches to and from disk.

Relations round-trip through delimiter-separated text (the shape of the
paper's real inputs — Wikipedia pagecount dumps and USAGOV click logs are
both flat text); cubes export in the paper's star notation; sketches
serialize to JSON, which is what a real deployment would publish on the
DFS between SP-Cube's two rounds.
"""

from __future__ import annotations

import json
from typing import Callable, List, Optional, Sequence

from ._gc import paused_gc
from .core.sketch import CuboidSketch, SPSketch
from .cubing.result import CubeResult
from .relation.lattice import format_group, ordered
from .relation.relation import Relation
from .relation.schema import Schema


def write_relation(relation: Relation, path: str, delimiter: str = "\t") -> int:
    """Write a relation as delimited text with a header line.

    Returns the number of data rows written.
    """
    with open(path, "w") as handle:
        header = list(relation.schema.dimensions) + [relation.schema.measure]
        handle.write(delimiter.join(header) + "\n")
        for row in relation:
            handle.write(delimiter.join(str(field) for field in row) + "\n")
    return len(relation)


def read_relation(
    path: str,
    delimiter: str = "\t",
    dimension_parsers: Optional[Sequence[Callable[[str], object]]] = None,
    measure_parser: Callable[[str], float] = float,
    name: Optional[str] = None,
) -> Relation:
    """Read a relation written by :func:`write_relation`.

    ``dimension_parsers`` converts each dimension column from text (default:
    keep strings); the measure column parses as a number.  Integral measures
    are narrowed back to ``int`` so count/sum round-trips are exact.
    """
    with open(path) as handle, paused_gc():
        header = handle.readline().rstrip("\n").split(delimiter)
        if len(header) < 2:
            raise ValueError(f"{path}: header needs >= 2 columns")
        schema = Schema(header[:-1], measure=header[-1])
        parsers = dimension_parsers or ()  # none: the fields stay text
        if parsers and len(parsers) != schema.num_dimensions:
            raise ValueError(
                f"{len(parsers)} parsers for {schema.num_dimensions} dimensions"
            )
        rows, arity = [], schema.arity
        for line_number, line in enumerate(handle, start=2):
            fields = line.rstrip("\n").split(delimiter)
            if len(fields) != arity:
                raise ValueError(
                    f"{path}:{line_number}: {len(fields)} fields, "
                    f"expected {arity}"
                )
            measure = measure_parser(fields[-1])
            if isinstance(measure, float) and measure.is_integer():
                measure = int(measure)
            fields[-1] = measure
            if parsers:
                fields[:-1] = [
                    parse(field) for parse, field in zip(parsers, fields)
                ]
            rows.append(tuple(fields))
    return Relation(schema, rows, validate=False, name=name or path)


def write_cube(cube: CubeResult, path: str, delimiter: str = "\t") -> int:
    """Export a cube in star notation: one ``group<TAB>value`` line per
    c-group, in deterministic order.  Returns the line count."""
    rows = cube.to_rows()
    with open(path, "w") as handle:
        for mask, values, aggregate_value in rows:
            rendered = format_group(mask, values, cube.schema)
            handle.write(f"{rendered}{delimiter}{aggregate_value}\n")
    return len(rows)


def sketch_to_json(sketch: SPSketch) -> str:
    """Serialize an SP-Sketch to JSON (what round 1 publishes on the DFS).

    Dimension values must be JSON-representable (numbers, strings,
    booleans, ``None``) — true for every workload in this repository.
    """
    payload = {
        "num_dimensions": sketch.num_dimensions,
        "num_partitions": sketch.num_partitions,
        "cuboids": [
            {
                "mask": mask,
                "skewed": [
                    [list(values), count]
                    for values, count in ordered(cuboid.skewed.items())
                ],
                "partition_elements": [
                    list(values) for values in cuboid.partition_elements
                ],
            }
            for mask, cuboid in sorted(sketch.cuboids.items())
        ],
    }
    return json.dumps(payload)


def sketch_from_json(text: str) -> SPSketch:
    """Rebuild an SP-Sketch serialized by :func:`sketch_to_json`."""
    payload = json.loads(text)
    cuboids = {}
    for entry in payload["cuboids"]:
        cuboids[entry["mask"]] = CuboidSketch(
            skewed={
                tuple(values): count for values, count in entry["skewed"]
            },
            partition_elements=[
                tuple(values) for values in entry["partition_elements"]
            ],
        )
    return SPSketch(
        payload["num_dimensions"], payload["num_partitions"], cuboids
    )


def write_sketch(sketch: SPSketch, path: str) -> int:
    """Write a sketch as JSON; returns the byte count (the paper's 5c/6c
    measurement on the real artifact)."""
    text = sketch_to_json(sketch)
    with open(path, "w") as handle:
        handle.write(text)
    return len(text.encode())

"""Lossless file formats the program reads back: instances and exact rational strings.

Rationals are serialized as strings, never floats.  Weights whose
denominator divides a power of ten round-trip as plain decimal strings
("0.35"); anything else falls back to "p/q".  Both forms parse back to
the identical Fraction.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Any, Sequence

from .instance import ParityInstance, make_disjoint
from .matroids import (
    ContractedMatroid,
    DirectSumMatroid,
    FreeMatroid,
    GraphicMatroid,
    LinearMatroid,
    MatroidOracle,
    PartitionMatroid,
    UniformMatroid,
    VertexCopyMatroid,
)


class FormatError(ValueError):
    """Unparseable or schema-violating input."""


# ``Fraction`` expands a decimal exponent in full, at a cost that grows
# faster than the exponent.  ``format_fraction`` never writes one, and a
# float's exponent stays within 308, so this bound sits far above what a
# hand-written file needs.
MAX_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE][+-]?([0-9_]+)")


# Python refuses to print an integer of more than 4,300 digits.  Written
# over the lcm of their denominators, weights are integers of at most this
# many bits, and so is the lcm.  A sum of up to 2^20 weights then has a
# numerator of at most 3,020 bits, and its terminating decimal form, if it
# has one, adds at most log2(10) - 1 < 2.33 bits per denominator bit:
# about 10,000 bits, some 3,000 digits, in any printed sum or ratio.
MAX_WEIGHT_BITS = 3000


def _check_weight_bits(weights: Sequence[Fraction]) -> None:
    """Refuse weights whose denominators' lcm, or any weight over it, exceeds the budget."""
    common = 1
    for w in weights:
        common = lcm(common, w.denominator)
        if common.bit_length() > MAX_WEIGHT_BITS:
            raise FormatError(f"weight denominators have an lcm beyond {MAX_WEIGHT_BITS} bits")
    if any(
        (abs(w.numerator) * (common // w.denominator)).bit_length() > MAX_WEIGHT_BITS
        for w in weights
    ):
        raise FormatError(f"a weight over their lcm exceeds {MAX_WEIGHT_BITS} bits")


# Most vertices an instance may declare, and most vertex-edge incidences
# a generator may build.  Free and uniform matroids and ``make_disjoint``
# hold a set of all the vertices, so an instance at the bound stays within
# some tens of megabytes.
MAX_VERTICES = 100_000


def _json_int(value: Any, what: str) -> int:
    """A JSON integer as it was read; a float, a boolean or a string is refused."""
    if type(value) is not int:
        raise FormatError(f"{what} must be an integer, got {value!r:.40}")
    return value


def _vertex_count(value: Any, what: str) -> int:
    count = _json_int(value, what)
    if count < 0:
        raise FormatError(f"{what} must be nonnegative, got {count}")
    if count > MAX_VERTICES:
        raise FormatError(f"{what} exceeds the bound of {MAX_VERTICES}")
    return count


def parse_fraction(text: str | int) -> Fraction:
    """Parse "3", "0.35", "7/10" or "1.5e-3" into an exact Fraction.

    A decimal exponent beyond ``MAX_EXPONENT`` in magnitude is refused
    before any digit is expanded.  Text must be ASCII: ``Fraction`` also
    reads other Unicode digits, which the exponent bound would not see.
    Anything but a string or an integer, such as a float or a boolean, is
    refused: a float already holds its binary expansion, not the number
    that was written.
    """
    if type(text) is int:
        return Fraction(text)
    if type(text) is str:
        if not text.isascii():
            raise FormatError(f"not an ASCII rational: {text[:40]!r}")
        match = _EXPONENT.search(text)
        if match is not None:
            digits = match.group(1).replace("_", "").lstrip("0")
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
                raise FormatError(f"exponent beyond {MAX_EXPONENT}: {text[:40]!r}")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"not a rational: {text!r}") from exc
    raise FormatError(f"a rational must be a string or an integer, got {text!r}")


def format_fraction(value: Fraction) -> str:
    """Exact string form, preferring terminating decimals.

    Decimal output is used when the denominator is of the form 2^a * 5^b,
    otherwise "p/q".  Either way parse_fraction returns the same value.
    """
    value = Fraction(value)
    den = value.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{value.numerator}/{value.denominator}"
    if value.denominator == 1:
        return str(value.numerator)
    shift = max(twos, fives)
    scaled = value.numerator * 10**shift // value.denominator
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(shift + 1, "0")
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"


def matroid_to_descriptor(oracle: MatroidOracle) -> dict[str, Any]:
    """Descriptor dict for the serializable matroid families."""
    if isinstance(oracle, UniformMatroid):
        return {"family": "uniform", "n": len(oracle.ground), "r": oracle.r}
    if isinstance(oracle, PartitionMatroid):
        return {
            "family": "partition",
            "blocks": [sorted(b) for b in oracle.blocks],
            "capacities": list(oracle.capacities),
        }
    if isinstance(oracle, GraphicMatroid):
        return {
            "family": "graphic",
            "vertices": oracle.num_graph_vertices,
            "edges": [[u, v] for u, v in oracle.graph_edges],
        }
    if isinstance(oracle, LinearMatroid):
        return {
            "family": "linear",
            "field_prime": oracle.prime,
            "columns": [list(c) for c in oracle.columns],
        }
    if isinstance(oracle, FreeMatroid):
        return {"family": "free", "n": len(oracle.ground)}
    raise FormatError(f"matroid of type {type(oracle).__name__} has no file descriptor")


def matroid_from_descriptor(desc: dict[str, Any]) -> MatroidOracle:
    try:
        family = desc["family"]
        if family == "uniform":
            return UniformMatroid(
                _vertex_count(desc["n"], "matroid n"), _json_int(desc["r"], "rank")
            )
        if family == "partition":
            return PartitionMatroid(
                [[_json_int(v, "block element") for v in b] for b in desc["blocks"]],
                [_json_int(c, "capacity") for c in desc["capacities"]],
            )
        if family == "graphic":
            return GraphicMatroid(
                _json_int(desc["vertices"], "graph vertex count"),
                [(_json_int(u, "endpoint"), _json_int(v, "endpoint")) for u, v in desc["edges"]],
            )
        if family == "linear":
            return LinearMatroid(
                _json_int(desc["field_prime"], "field prime"),
                [[_json_int(x, "column entry") for x in c] for c in desc["columns"]],
            )
        if family == "free":
            return FreeMatroid(_vertex_count(desc["n"], "matroid n"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"bad matroid descriptor: {exc}") from exc
    raise FormatError(f"unknown matroid family {family!r}")


def _edge_vertices(values: Any) -> list[int]:
    verts = [_json_int(v, "vertex id") for v in values]
    if len(set(verts)) != len(verts):
        raise FormatError("an edge lists a vertex twice")
    return verts


@dataclass
class InstanceDoc:
    """The on-disk instance model.

    Stores the raw (possibly overlapping) hypergraph plus a serializable
    matroid descriptor.  Normalization to the disjoint form happens on
    load, in memory; files always carry the raw shape.
    """

    arity: int
    num_vertices: int
    edge_verts: list[list[int]]
    edge_weights: list[Fraction]
    matroid_desc: dict[str, Any]
    name: str = field(default="instance")

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "k": self.arity,
            "vertices": self.num_vertices,
            "edges": [
                {"verts": sorted(v), "w": format_fraction(w)}
                for v, w in zip(self.edge_verts, self.edge_weights)
            ],
            "matroid": self.matroid_desc,
            "name": self.name,
        }

    @classmethod
    def from_json_obj(cls, obj: dict[str, Any]) -> "InstanceDoc":
        try:
            edges = obj["edges"]
            doc = cls(
                arity=_json_int(obj["k"], "k"),
                num_vertices=_vertex_count(obj["vertices"], "vertex count"),
                edge_verts=[_edge_vertices(e["verts"]) for e in edges],
                edge_weights=[parse_fraction(e["w"]) for e in edges],
                matroid_desc=dict(obj["matroid"]),
                name=str(obj.get("name", "instance")),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"bad instance document: {exc}") from exc
        _check_weight_bits(doc.edge_weights)
        return doc

    def normalize(self) -> ParityInstance:
        return make_disjoint(
            self.num_vertices,
            self.edge_verts,
            self.edge_weights,
            matroid_from_descriptor(self.matroid_desc),
            self.arity,
        )


def dumps_canonical(obj: Any) -> str:
    """Canonical JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def load_instance_doc(path: str | Path) -> InstanceDoc:
    # Undecodable bytes, an integer past Python's digit limit and deep
    # nesting each end ``read_text`` or ``json.loads`` with one of these.
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"invalid JSON in {path}: {exc}") from exc
    return InstanceDoc.from_json_obj(obj)


_FILE_FAMILIES = (UniformMatroid, PartitionMatroid, GraphicMatroid, LinearMatroid, FreeMatroid)


def _matroid_payload(oracle: MatroidOracle) -> Any:
    """JSON-ready content of an oracle, for signatures.

    File families give their descriptor; a direct sum gives its parts'
    payloads, and the other combinators their base oracle's payload plus
    their own map or element set.  An oracle class this module does not
    know contributes only its class name.
    """
    if isinstance(oracle, _FILE_FAMILIES):
        return matroid_to_descriptor(oracle)
    payload: dict[str, Any] = {"oracle": type(oracle).__name__}
    if isinstance(oracle, DirectSumMatroid):
        payload["parts"] = [_matroid_payload(p) for p in oracle.parts]
        return payload
    if isinstance(oracle, VertexCopyMatroid):
        payload["copy_to_original"] = sorted(oracle.copy_to_original.items())
    elif isinstance(oracle, ContractedMatroid):
        payload["away"] = sorted(oracle.away)
    else:
        return type(oracle).__name__
    payload["base"] = _matroid_payload(oracle.base)
    return payload


def instance_signature(instance: ParityInstance) -> str:
    """Short content hash used to detect trace/instance mismatches.

    It covers the arity, vertices, edges, weights and matroid payload.
    Instances and oracles are immutable, so the hash is computed once per
    instance object and kept on it, as a cached property would be.
    """
    signature = instance.__dict__.get("_signature")
    if signature is None:
        payload = {
            "k": instance.arity,
            "vertices": instance.num_vertices,
            "edges": [sorted(e) for e in instance.edges],
            "weights": [format_fraction(w) for w in instance.weights],
            "matroid": _matroid_payload(instance.matroid),
        }
        digest = hashlib.sha256(dumps_canonical(payload).encode("utf-8")).hexdigest()
        signature = instance.__dict__["_signature"] = digest[:16]
    return signature

"""File formats: canonical JSON (sorted keys, 17-significant-digit floats)
and plain CSV series.  Identical inputs serialize to identical bytes, which
is what makes seeded runs reproducible at the byte level.

``dumps_canonical`` writes the two bulky kinds of value in one pass each.  A
list of Python floats, or a float array of any rank, is formatted with
``format(v, ".17g")`` over its flat ``tolist()``; the rows of its last axis
are joined, then the brackets of each outer axis added.  nan and inf come out
as the bare ``nan`` and ``inf`` tokens.  A list of Python ints (not bools), or
nested lists whose leaves are all such ints at one depth, such as a complex's
gluing, goes through the standard library's C encoder with ``(",", ":")``
separators.  Any other value is rendered element by element with the same
rules, so every route gives the same bytes.

Reading is the mirror image: a complex's gluing is decoded from one flat list
of ints by ``complexes.build_complex``, and per-element float data, class
intersection angles included, by one ``errors.finite_vector`` call each.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from .angles import AngleSystem, ConformalClassSpec
from .ascent import TraceRecord
from .complexes import TopologicalTriangulation
from .errors import finite_vector
from .smoothflow import MeshMetric
from .uniformize import HyperbolicStructure


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


_INT_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _int_tree(seq) -> bool:
    """True when ``seq`` is nested lists/tuples with Python ints at one depth.

    Walks one nesting level at a time, so the check runs in C; a level that
    mixes ints with lists answers False and is rendered the slow way.
    """
    level = seq
    while level:
        types = set(map(type, level))
        if types == {int}:
            return True
        if not types <= {list, tuple}:
            return False
        level = list(chain.from_iterable(level))
    return True


def _float_array_json(a: np.ndarray) -> str:
    """A float array of rank >= 1 as nested JSON lists, in one formatting pass."""
    parts = [format(v, ".17g") for v in a.reshape(-1).tolist()]
    for axis in range(a.ndim - 1, -1, -1):  # innermost axis first
        n = a.shape[axis]
        parts = [
            "[" + ",".join(parts[i * n : (i + 1) * n]) + "]"
            for i in range(math.prod(a.shape[:axis]))
        ]
    return parts[0]


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, floats at 17 significant digits."""

    def render(o) -> str:
        if isinstance(o, dict):
            items = sorted(o.items())
            inner = ",".join(f"{json.dumps(str(k))}:{render(v)}" for k, v in items)
            return "{" + inner + "}"
        if isinstance(o, np.ndarray) and o.ndim and o.dtype.kind == "f":
            return _float_array_json(o)
        if isinstance(o, (list, tuple, np.ndarray)):
            seq = o.tolist() if isinstance(o, np.ndarray) else o
            if all(type(v) is float for v in seq):
                return "[" + ",".join([format(v, ".17g") for v in seq]) + "]"
            if _int_tree(seq):
                return _INT_ENCODER.encode(seq)
            return "[" + ",".join(render(v) for v in seq) + "]"
        if isinstance(o, bool) or o is None:
            return json.dumps(o)
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            return fmt_float(o)
        if isinstance(o, str):
            return json.dumps(o)
        raise TypeError(f"cannot serialize {type(o)}")

    return render(obj)


def write_json(path, obj) -> None:
    Path(path).write_text(dumps_canonical(obj) + "\n", encoding="utf-8")


def read_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


# -- typed payloads -----------------------------------------------------------------


def angle_system_to_dict(x: AngleSystem) -> dict:
    return {"complex": x.complex.to_dict(), "psi": x.psi}


def class_spec_to_dict(spec: ConformalClassSpec) -> dict:
    return {
        "complex": spec.complex.to_dict(),
        "psi_edge": {str(e): spec.psi_edge[e] for e in range(spec.psi_edge.size)},
    }


def class_spec_from_dict(data: dict) -> ConformalClassSpec:
    T = TopologicalTriangulation.from_dict(data["complex"])
    raw = data["psi_edge"]
    return ConformalClassSpec(T, [raw[str(e)] for e in range(T.edge_count)])


def mesh_from_dict(data: dict) -> MeshMetric:
    T = TopologicalTriangulation.from_dict(data["complex"])
    return MeshMetric(T, data["lengths"])


def structure_to_dict(st: HyperbolicStructure) -> dict:
    return {
        "complex": st.complex.to_dict(),
        "edge_lengths": st.edge_lengths,
        "face_angles": st.face_angles,
        "circumradii": st.circumradii,
        "intersection_angles": st.intersection_angles,
        "psi_edge": st.psi_edge,
    }


def structure_from_dict(data: dict) -> HyperbolicStructure:
    """The structure in ``data``; ``ValueError`` names a field not finite or not fit to F, E."""
    T = TopologicalTriangulation.from_dict(data["complex"])
    E, F = T.edge_count, T.face_count

    def field(key: str, n, what: str) -> np.ndarray:
        try:
            return finite_vector(data[key], n, what)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None

    return HyperbolicStructure(
        complex=T,
        edge_lengths=field("edge_lengths", E, "edge"),
        face_angles=field("face_angles", (F, 3), "corner"),
        circumradii=field("circumradii", F, "face"),
        intersection_angles=field("intersection_angles", E, "edge"),
        psi_edge=field("psi_edge", E, "edge"),
    )


# -- CSV series ----------------------------------------------------------------------


def trials_csv(records) -> str:
    lines = ["trial,n,F,estimator"]
    for r in records:
        lines.append(f"{r.trial},{r.n},{r.faces},{fmt_float(r.estimator)}")
    return "\n".join(lines) + "\n"


def trace_csv(trace: list[TraceRecord]) -> str:
    lines = ["iteration,H,grad_inf,step,worst_length_mismatch"]
    for r in trace:
        lines.append(
            f"{r.iteration},{fmt_float(r.objective)},{fmt_float(r.grad_inf)},"
            f"{fmt_float(r.step)},{fmt_float(r.residual)}"
        )
    return "\n".join(lines) + "\n"


def counts_csv(counts) -> str:
    lines = ["trial,count"]
    for i, c in enumerate(counts):
        lines.append(f"{i},{fmt_float(c)}")
    return "\n".join(lines) + "\n"

"""Adversarial input files for the file-reading subcommands.

Every file either works or fails with one of the documented exit codes;
no exception escapes ``cli.run``.  Files start from well-formed complexes,
classes, meshes, structures and ``flow --phi0`` factors of at most 64 faces
and are then damaged: values swapped for wrong JSON types, NaN, inf or huge
numbers, keys deleted, lists cut short (ragged gluings) or padded, edge
lengths stretched past the triangle inequality.  The stock complexes include
chi >= 0 ones.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from diskflow.cli import run
from diskflow.complexes import (
    TopologicalTriangulation,
    csaszar_torus,
    genus2_octagon,
    octagon_cone,
    pillow,
    subdivide,
    tetrahedron,
    two_triangle_torus,
)

STOCK = [
    tetrahedron(),
    pillow(),
    two_triangle_torus(),
    csaszar_torus(),
    genus2_octagon(),
    octagon_cone(),
    subdivide(genus2_octagon()).complex,
    subdivide(subdivide(genus2_octagon()).complex).complex,
]

ADVERSARIAL = st.sampled_from([
    float("nan"), float("inf"), float("-inf"), -1, 0, 1, 2.5, -0.0, 1e-300, 1e300,
    10**13, 2**61, 2**63, 2**64, 10**30, True, None, "x", "", [], {}, [[1]], [0, 1, 2],
]).map(copy.deepcopy)  # later damage edits lists and dicts in place


@st.composite
def complexes(draw):
    """A stock complex, or a random pairing of the sides of at most 64 faces."""
    if draw(st.booleans()):
        return draw(st.sampled_from(STOCK)).to_dict()
    half = draw(st.integers(1, 32))
    flags = draw(st.permutations(range(6 * half)))
    gluing = [
        [list(divmod(flags[i], 3)), list(divmod(flags[i + 1], 3))]
        for i in range(0, len(flags), 2)
    ]
    return {"faces": 2 * half, "gluing": gluing}


def _mutate(draw, doc):
    """Damage one node of the JSON tree, chosen by a random descent."""
    if isinstance(doc, (dict, list)) and doc and draw(st.integers(0, 3)) > 0:
        keys = sorted(doc) if isinstance(doc, dict) else range(len(doc))
        key = draw(st.sampled_from(list(keys)))
        child = _mutate(draw, doc[key])
        if child is _DELETE:
            doc.pop(key)
        else:
            doc[key] = child
        return doc
    op = draw(st.sampled_from(["replace", "delete", "truncate", "pad"]))
    if op == "delete":
        return _DELETE
    if op == "truncate" and isinstance(doc, list) and doc:
        return doc[: draw(st.integers(0, len(doc) - 1))]
    if op == "pad" and isinstance(doc, list):
        return doc + [draw(ADVERSARIAL)]
    return draw(ADVERSARIAL)


_DELETE = object()


def _floats(draw, n: int, lo: float, hi: float) -> list:
    return draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))


def _damaged(draw, doc) -> str:
    """``doc`` after up to three damages, as JSON text."""
    for _ in range(draw(st.integers(0, 3))):
        doc = _mutate(draw, doc)
        if doc is _DELETE:
            doc = {}
    text = json.dumps(doc)
    if draw(st.booleans()):
        text = text.replace("Infinity", "1e400")
    return text


@st.composite
def input_files(draw):
    """A subcommand, its input file's text, and a ``--phi0`` file's text or None."""
    command = draw(st.sampled_from(["validate", "uniformize", "teleport", "flow", "pattern"]))
    cx = draw(complexes())
    faces, edges = cx["faces"], 3 * cx["faces"] // 2
    phi0 = None
    if command == "validate":
        doc = cx
    elif command == "uniformize":
        psi = _floats(draw, edges, 0.05, 3.1)
        doc = {"complex": cx, "psi_edge": {str(e): p for e, p in enumerate(psi)}}
    elif command == "pattern":
        doc = {
            "complex": cx,
            "edge_lengths": _floats(draw, edges, 0.1, 3.0),
            "face_angles": [_floats(draw, 3, 0.05, 1.0) for _ in range(faces)],
            "circumradii": _floats(draw, faces, 0.1, 3.0),
            "intersection_angles": _floats(draw, edges, 0.05, 3.1),
            "psi_edge": _floats(draw, edges, 0.05, 3.1),
        }
    else:
        lengths = _floats(draw, edges, 0.75, 1.3)
        if draw(st.booleans()):  # one edge longer than all others together
            lengths[draw(st.integers(0, edges - 1))] = sum(lengths)
        doc = {"complex": cx, "lengths": lengths}
        if command == "flow" and draw(st.booleans()):
            vertices = TopologicalTriangulation.from_dict(cx).vertex_count
            phi0 = _damaged(draw, {"phi": _floats(draw, vertices, -0.1, 0.1)})
    return command, _damaged(draw, doc), phi0


@settings(max_examples=300, deadline=None)
@given(input_files())
@example(("validate", '{"faces": 1e400, "gluing": []}', None))
@example(("validate", '{"faces": 10000000000000, "gluing": []}', None))
@example(("teleport", '{"complex": {"faces": -6, "gluing": []}, "lengths": []}', None))
@example(("uniformize", '{"complex": {"faces": 2, "gluing": [[[0, 0]]]}, "psi_edge": {}}', None))
@example(("pattern", json.dumps({"complex": genus2_octagon().to_dict(), "edge_lengths": [1] * 9,
                                 "face_angles": [], "circumradii": [1] * 6,
                                 "intersection_angles": [1, 2], "psi_edge": [1] * 9}), None))
def test_cli_survives_adversarial_files(case):
    command, text, phi0 = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(text, encoding="utf-8")
        argv = [command, str(path)]
        if command in ("uniformize", "flow"):
            argv += ["--max-iter", "20"]
        if phi0 is not None:
            (Path(tmp) / "phi0.json").write_text(phi0, encoding="utf-8")
            argv += ["--phi0", str(Path(tmp) / "phi0.json")]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = run(argv)
    assert code in (0, 1, 2, 3)

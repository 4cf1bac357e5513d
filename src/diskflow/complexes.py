"""Flag-glued closed-surface triangulations.

A triangulation is stored as ``F`` abstract triangles whose sides are glued in
pairs.  Side ``i`` of a face is opposite corner ``i`` and runs from corner
``(i+1) % 3`` to corner ``(i+2) % 3``; a gluing identifies the start corner of
one side with the end corner of the other (head to tail), so faces carry
coherent orientations.  Everything downstream (vertex orbits, edge stars,
Euler characteristic) is derived from that single involution.

Gluings are encoded on flags ``3*face + side``.  Multi-edges and same-face
gluings across distinct sides are allowed; they are required to express small
negative-Euler-characteristic complexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .errors import DuplicateSide, SelfGluedSide, UnmatchedSide

if TYPE_CHECKING:
    from scipy import sparse

Side = tuple[int, int]


def _flag(face: int, side: int) -> int:
    return 3 * face + side


class TopologicalTriangulation:
    """Closed-surface triangulation given by a fixed-point-free side involution.

    Attributes
    ----------
    face_count : number of triangles F
    mate : int array of length 3F, the gluing involution on flags
    edges : (E, 2) int array of flag pairs (lo, hi), sorted by lo; index = edge id
    edge_of_flag : edge id per flag
    vertex_of_corner : vertex id per corner flag (corner c of face f = 3f+c)
    vertex_count : number of corner orbits V
    edge_endpoints : (E, 2) vertex ids of each edge's ends
    signed_incidence : (3F, E) signed flag-edge incidence, computed on first access
    corners_of_vertex : corner flags per vertex, a list of lists of ints
        computed on first access, as nothing in the solvers reads it
    """

    def __init__(self, face_count: int, mate: np.ndarray):
        self.face_count = int(face_count)
        self.mate = np.asarray(mate, dtype=np.int64)
        self._derive()

    # -- construction ---------------------------------------------------------

    def _derive(self) -> None:
        n = 3 * self.face_count
        mate = self.mate
        flags = np.arange(n, dtype=np.int64)
        nxt = flags - flags % 3 + (flags + 1) % 3  # corner at the start of each side
        prv = flags - flags % 3 + (flags + 2) % 3  # corner at its end

        lo = np.flatnonzero(flags < mate)
        hi = mate[lo]
        self.edges = np.stack([lo, hi], axis=1)
        self.edge_count = len(lo)
        self.edge_of_flag = np.empty(n, dtype=np.int64)
        self.edge_of_flag[lo] = self.edge_of_flag[hi] = np.arange(self.edge_count)

        # a gluing takes corner nxt[f] to corner prv[mate[f]], and the cycles of
        # that permutation are the vertices.  Pointer doubling labels each corner
        # with the least corner of its cycle; after k rounds a label covers 2^k
        # turns, and a round that lowers no label has covered every cycle (in a
        # longer one, the corner 2^k turns before the least would be lowered)
        turn = np.empty(n, dtype=np.int64)
        turn[nxt] = prv[mate]
        least = flags
        while True:
            lower = np.minimum(least, least[turn])
            if np.array_equal(lower, least):
                break
            least, turn = lower, turn[turn]
        # vertices numbered in order of their least corner
        least_corners, self.vertex_of_corner = np.unique(least, return_inverse=True)
        self.vertex_count = len(least_corners)

        # edge endpoints as vertex ids (order: start corner of the lower flag, then end)
        self.edge_endpoints = self.vertex_of_corner[np.stack([nxt[lo], prv[lo]], axis=1)]

    @cached_property
    def corners_of_vertex(self) -> list[list[int]]:
        """Corner flags at each vertex, ascending; built on first access."""
        order = np.argsort(self.vertex_of_corner, kind="stable").tolist()
        ends = np.cumsum(np.bincount(self.vertex_of_corner, minlength=self.vertex_count))
        return [order[a:b] for a, b in zip([0, *ends[:-1].tolist()], ends.tolist())]

    @cached_property
    def signed_incidence(self) -> sparse.csr_array:
        """(3F, E) CSR array D, +1 at (lower flag, edge) and -1 at (upper flag, edge).

        A conformal-class move d moves the partials by D @ d, changing no
        per-edge sum and no vertex sum; per-flag gradients and Hessians
        restrict to the class as D^T g and D^T H D.
        """
        # imported here: scipy.sparse is slow to load and validate never builds D
        from scipy import sparse

        n = 3 * self.face_count
        sign = np.where(np.arange(n) < self.mate, 1.0, -1.0)  # a flag below its mate is lower
        indptr = np.arange(n + 1)  # one entry a row
        return sparse.csr_array((sign, self.edge_of_flag, indptr), (n, self.edge_count))

    @property
    def chi(self) -> int:
        return self.vertex_count - self.edge_count + self.face_count

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TopologicalTriangulation)
            and self.face_count == other.face_count
            and np.array_equal(self.mate, other.mate)
        )

    def __hash__(self):
        return hash((self.face_count, self.mate.tobytes()))

    def __repr__(self) -> str:
        return (
            f"TopologicalTriangulation(F={self.face_count}, E={self.edge_count}, "
            f"V={self.vertex_count}, chi={self.chi})"
        )

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "faces": self.face_count,
            "gluing": np.stack([self.edges // 3, self.edges % 3], axis=-1).tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TopologicalTriangulation":
        faces = data["faces"]
        # a larger count has flags 3F beyond int64, and no gluing could cover them
        if type(faces) is not int or not 0 <= faces < 2**61:
            raise ValueError(f"faces must be an integer in [0, 2**61), got {faces!r}")
        return build_complex(faces, data["gluing"])


def _flat_ints(pairs) -> list[int] | None:
    """The entries of ``pairs``, flat, when it is a (P, 2, 2) tree of Python
    ints (not bools); else None.

    The lengths of each level and the types of the leaves are checked in C
    (``set(map(len, ...))``, ``set(map(type, ...))``), as
    ``serialization._int_tree`` does; a level whose items have no length
    answers None.
    """
    try:
        sides = list(chain.from_iterable(pairs))
        if set(map(len, pairs)) != {2} or set(map(len, sides)) != {2}:
            return None
    except TypeError:
        return None
    flat = list(chain.from_iterable(sides))
    return flat if set(map(type, flat)) == {int} else None


def _ragged(pairs) -> ValueError:
    """The shape error of a ragged gluing list, naming its first bad pair."""
    for k, pair in enumerate(pairs):
        try:
            if np.shape(pair) == (2, 2):
                continue
        except ValueError:  # the pair itself is ragged
            pass
        return ValueError(f"gluing pairs must have shape (P, 2, 2), pair {k} is {pair!r}")
    return ValueError("gluing pairs must have shape (P, 2, 2)")


def _gluing_sides(gluing_pairs) -> np.ndarray:
    """``gluing_pairs`` as an array of any shape: int64 when it is an int array
    or a (P, 2, 2) list of Python ints that fit, else object with the entries
    as written.  A ragged list raises the shape error naming its first bad pair.
    """
    if isinstance(gluing_pairs, np.ndarray) and gluing_pairs.dtype.kind == "i":
        return gluing_pairs
    if isinstance(gluing_pairs, (list, tuple)):
        flat = _flat_ints(gluing_pairs)
        if flat is not None:
            try:
                return np.array(flat, dtype=np.int64).reshape(-1, 2, 2)
            except OverflowError:  # an entry beyond int64 is named as written
                pass
        try:
            np.asarray(gluing_pairs)
        except ValueError:
            raise _ragged(gluing_pairs) from None
    return np.asarray(gluing_pairs, dtype=object)


def build_complex(
    face_count: int, gluing_pairs: list[tuple[Side, Side]]
) -> TopologicalTriangulation:
    """Validate a side pairing and build the triangulation.

    ``gluing_pairs`` is a sequence (or (P, 2, 2) int array) of side pairs
    ``((face, side), (face, side))``.  Nested lists of Python ints, as JSON
    decodes them, are checked level by level in C and converted by one
    ``np.array`` of their flat entries; any other input is converted entry by
    entry, keeping the entries as written for the error messages.  Another
    shape raises ``ValueError``, which names the first bad pair of a ragged
    list.  The pairs must cover every one of the 3F sides exactly once and may
    not pair a side with itself.  Violations raise ``UnmatchedSide``,
    ``DuplicateSide`` or ``SelfGluedSide`` naming the first offending side as
    written, in pair order; a face or side entry that is not an integer (a
    float such as 0.9, a string, a bool) lies outside the complex.
    """
    sides = _gluing_sides(gluing_pairs)
    if sides.size == 0:
        sides = np.empty((0, 2, 2), dtype=np.int64)
    elif sides.shape[1:] != (2, 2):
        raise ValueError(f"gluing pairs must have shape (P, 2, 2), got {sides.shape}")
    checked = sides
    if sides.dtype == object:  # an entry that is not an int lies outside the complex
        is_int = np.vectorize(
            lambda v: type(v) is int or isinstance(v, np.integer), otypes=[bool]
        )(sides)
        checked = np.where(is_int, sides, -1)
    face, side = checked[..., 0], checked[..., 1]
    outside = ~((0 <= face) & (face < face_count) & (0 <= side) & (side < 3))
    flags = np.where(outside, -1, 3 * face + side).astype(np.int64)
    glued_to_itself = flags[:, 0] == flags[:, 1]
    # a side is a duplicate when its flag occurred before (within one pair
    # that is a self-gluing, which is reported first); the sorted flags show
    # whether any side inside the complex is, before any is looked for
    flat = flags.reshape(-1)
    ordered = np.sort(flat)
    repeated = np.zeros(flags.shape, dtype=bool)
    if ((ordered[1:] == ordered[:-1]) & (ordered[1:] >= 0)).any():
        _, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
        repeated = (first[inverse] < np.arange(flat.size)).reshape(-1, 2)
    # the first bad pair names its first bad side, checked in this order
    bad = outside.any(axis=1) | glued_to_itself | repeated.any(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        for mask, error, what in (
            (outside[k], UnmatchedSide, "is outside the complex"),
            (glued_to_itself[k, None], SelfGluedSide, "glued to itself"),
            (repeated[k], DuplicateSide, "appears in two pairs"),
        ):
            if mask.any():
                f, s = sides[k, int(np.argmax(mask))]
                raise error(f"side (face {f}, side {s}) {what}")
    # the flags are now distinct and inside the complex, so they cover all 3F
    # sides exactly when there are 3F of them; the first gap names a side
    if flat.size < 3 * face_count:
        gaps = np.flatnonzero(ordered != np.arange(flat.size))
        f, s = divmod(int(gaps[0]) if gaps.size else flat.size, 3)
        raise UnmatchedSide(f"side (face {f}, side {s}) is not glued")
    mate = np.empty(3 * face_count, dtype=np.int64)
    mate[flags[:, 0]] = flags[:, 1]
    mate[flags[:, 1]] = flags[:, 0]
    return TopologicalTriangulation(face_count, mate)


def from_vertex_triples(triples: list[tuple[int, int, int]]) -> TopologicalTriangulation:
    """Import a triangulation given by vertex triples.

    Each unordered vertex pair must occur on exactly two face sides.  Faces
    are re-oriented by propagation across shared sides so that those are
    traversed oppositely; no triples give the empty complex, and
    non-orientable, disconnected or ambiguous input raises ``ValueError``.
    This importer cannot express complexes with multi-edges or loops, which
    is why the side-gluing form is primary.
    """
    faces = [tuple(int(v) for v in t) for t in triples]
    F = len(faces)
    if F == 0:
        return build_complex(0, [])
    for t in faces:
        if len(set(t)) != 3:
            raise ValueError(f"face {t} repeats a vertex; use side gluings instead")

    def side_pairs(tri):
        # side i runs from corner (i+1) to corner (i+2)
        return [(tri[(i + 1) % 3], tri[(i + 2) % 3]) for i in range(3)]

    # orient faces coherently
    by_pair: dict[frozenset, list[int]] = {}
    for f, tri in enumerate(faces):
        for u, w in side_pairs(tri):
            by_pair.setdefault(frozenset((u, w)), []).append(f)
    for key, fs in by_pair.items():
        if len(fs) != 2:
            raise ValueError(
                f"vertex pair {sorted(key)} lies on {len(fs)} sides; gluing is ambiguous"
            )

    oriented: list[tuple[int, int, int] | None] = [None] * F
    oriented[0] = faces[0]
    queue = [0]
    while queue:
        f = queue.pop()
        for u, w in side_pairs(oriented[f]):
            for g in by_pair[frozenset((u, w))]:
                if g == f:
                    continue
                tri = oriented[g] if oriented[g] is not None else faces[g]
                directed = (u, w) in side_pairs(tri)
                if oriented[g] is None:
                    # shared side must be traversed oppositely in g
                    oriented[g] = (tri[0], tri[2], tri[1]) if directed else tri
                    queue.append(g)
                elif directed:
                    raise ValueError(
                        "triangulation is not orientable; provide side gluings directly"
                    )
    if any(t is None for t in oriented):
        raise ValueError("triangulation is not connected")

    # each vertex pair lies on two sides, which the walk made run opposite ways
    flag_of_directed = {(u, w): _flag(f, i) for f, tri in enumerate(oriented)
                        for i, (u, w) in enumerate(side_pairs(tri))}

    pairs = []
    for (u, w), a in flag_of_directed.items():
        b = flag_of_directed[(w, u)]
        if a < b:
            pairs.append(((a // 3, a % 3), (b // 3, b % 3)))
    return build_complex(F, pairs)


# -- midpoint subdivision ------------------------------------------------------


@dataclass(frozen=True)
class SubdividedComplex:
    """1-to-4 midpoint subdivision together with edge provenance.

    ``parent_edge[e]`` is the original edge an edge of the refined complex
    came from: the two halves of an original edge, and the medial cut
    parallel to it inside each incident face, all map to that edge.
    ``is_medial[e]`` distinguishes the parallel cuts from the halves.
    """

    complex: TopologicalTriangulation
    parent_edge: np.ndarray
    is_medial: np.ndarray


def subdivide(T: TopologicalTriangulation) -> SubdividedComplex:
    """Split every face into four (corner triangles plus the medial one).

    Face t becomes corner faces 4t + j, cut off along side j of the medial
    face 4t + 3; each edge of t splits into halves on the corner faces.
    """
    F = T.face_count
    t, j = np.divmod(np.arange(3 * F), 3)
    cuts = np.stack([4 * t + j, np.zeros_like(j), 4 * t + 3, j], axis=-1)
    (t, i), (s, ip) = np.divmod(T.edges[:, 0], 3), np.divmod(T.edges[:, 1], 3)
    one, two = np.ones_like(t), np.full_like(t, 2)
    halves = np.stack([4 * t + (i + 1) % 3, two, 4 * s + (ip + 2) % 3, one,
                       4 * t + (i + 2) % 3, one, 4 * s + (ip + 1) % 3, two], axis=-1)
    # one pair per row of four: the 3F cuts, then both halves of each edge in turn
    pairs = np.concatenate([cuts.reshape(-1, 2, 2), halves.reshape(-1, 2, 2)])

    sub = build_complex(4 * F, pairs)
    # each pair is one edge of the refined complex, named by its first flag
    edge = sub.edge_of_flag[3 * pairs[:, 0, 0] + pairs[:, 0, 1]]
    parent = np.empty(sub.edge_count, dtype=np.int64)
    parent[edge] = np.concatenate([T.edge_of_flag, np.repeat(np.arange(T.edge_count), 2)])
    medial = np.zeros(sub.edge_count, dtype=bool)
    medial[edge[: 3 * F]] = True
    return SubdividedComplex(sub, parent, medial)


# -- stock complexes -------------------------------------------------------------


def tetrahedron() -> TopologicalTriangulation:
    """Boundary of the 3-simplex: V=4, E=6, F=4, chi=2."""
    return from_vertex_triples([(1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)])


def pillow() -> TopologicalTriangulation:
    """Two triangles glued along all three sides (doubled triangle, chi=2)."""
    return build_complex(2, [((0, 0), (1, 0)), ((0, 1), (1, 2)), ((0, 2), (1, 1))])


def two_triangle_torus() -> TopologicalTriangulation:
    """Two triangles glued side-for-side: one vertex, chi=0."""
    return build_complex(2, [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))])


def csaszar_torus() -> TopologicalTriangulation:
    """The 7-vertex torus triangulation (complete graph on 7 vertices)."""
    triples = []
    for i in range(7):
        triples.append((i, (i + 1) % 7, (i + 3) % 7))
        triples.append((i, (i + 2) % 7, (i + 3) % 7))
    return from_vertex_triples(triples)


def genus2_octagon() -> TopologicalTriangulation:
    """Fan triangulation of the identified octagon: F=6, E=9, V=1, chi=-2.

    The octagon boundary carries the surface word a b a' b' c d c' d'; the
    fan uses five interior diagonals from one polygon corner.
    """
    pairs: list[tuple[Side, Side]] = [
        ((0, 2), (1, 0)),  # a
        ((0, 0), (2, 0)),  # b
        ((3, 0), (5, 0)),  # c
        ((4, 0), (5, 1)),  # d
    ]
    for t in range(5):  # fan diagonals
        pairs.append(((t, 1), (t + 1, 2)))
    return build_complex(6, pairs)


def octagon_cone() -> TopologicalTriangulation:
    """Cone over the identified octagon: F=8, E=12, V=2, chi=-2.

    All eight apex corners lie at one vertex and all boundary corners at the
    other, so equal-shaped faces give a metric with equal curvature at both
    vertices.
    """
    pairs: list[tuple[Side, Side]] = [
        ((0, 0), (2, 0)),  # a
        ((1, 0), (3, 0)),  # b
        ((4, 0), (6, 0)),  # c
        ((5, 0), (7, 0)),  # d
    ]
    for i in range(8):  # spokes
        pairs.append((((i - 1) % 8, 1), (i, 2)))
    return build_complex(8, pairs)

import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diskflow.complexes import (
    TopologicalTriangulation,
    build_complex,
    csaszar_torus,
    from_vertex_triples,
    genus2_octagon,
    octagon_cone,
    pillow,
    subdivide,
    tetrahedron,
    two_triangle_torus,
)
from diskflow.errors import DuplicateSide, SelfGluedSide, UnmatchedSide

from helpers import octahedron, random_complex
from oracles import (
    UnknownVertex,
    derive_union_find,
    euler_characteristic,
    gluing_mate_loop,
    subdivide_loop,
    vertex_edge_incidence,
)


def test_tetrahedron_counts():
    T = tetrahedron()
    assert (T.face_count, T.edge_count, T.vertex_count) == (4, 6, 4)
    assert euler_characteristic(T) == 2


def test_pillow_counts():
    T = pillow()
    assert (T.face_count, T.edge_count, T.vertex_count) == (2, 3, 3)
    assert T.chi == 2


def test_two_triangle_torus():
    T = two_triangle_torus()
    assert (T.vertex_count, T.chi) == (1, 0)


def test_csaszar_torus():
    T = csaszar_torus()
    assert (T.face_count, T.edge_count, T.vertex_count) == (14, 21, 7)
    assert T.chi == 0


def test_genus2_octagon():
    T = genus2_octagon()
    assert (T.face_count, T.edge_count, T.vertex_count) == (6, 9, 1)
    assert T.chi == -2


def test_octagon_cone():
    T = octagon_cone()
    assert (T.face_count, T.edge_count, T.vertex_count) == (8, 12, 2)
    assert T.chi == -2


def test_edge_face_relation():
    rng = np.random.default_rng(0)
    for F in (4, 6, 8, 10):
        T = random_complex(rng, F)
        assert 2 * T.edge_count == 3 * T.face_count
        assert sum(len(c) for c in T.corners_of_vertex) == 3 * T.face_count


def test_vertex_edge_incidence_tetrahedron():
    T = tetrahedron()
    for v in range(4):
        inc = vertex_edge_incidence(T, v)
        assert len(inc) == 3
        assert len(set(inc)) == 3


def test_vertex_edge_incidence_pillow():
    T = pillow()
    for v in range(3):
        assert len(vertex_edge_incidence(T, v)) == 2


def test_handshake():
    rng = np.random.default_rng(1)
    for T in (genus2_octagon(), octagon_cone(), random_complex(rng, 8)):
        total = sum(len(vertex_edge_incidence(T, v)) for v in range(T.vertex_count))
        assert total == 2 * T.edge_count


def test_unknown_vertex():
    with pytest.raises(UnknownVertex):
        vertex_edge_incidence(tetrahedron(), 99)


def test_unmatched_side():
    with pytest.raises(UnmatchedSide):
        build_complex(2, [((0, 0), (1, 0)), ((0, 1), (1, 2))])


def test_self_glued_side():
    with pytest.raises(SelfGluedSide):
        build_complex(2, [((0, 0), (0, 0)), ((0, 1), (1, 2)), ((0, 2), (1, 1))])


def test_duplicate_side():
    with pytest.raises(DuplicateSide):
        build_complex(
            2, [((0, 0), (1, 0)), ((0, 0), (1, 1)), ((0, 1), (1, 2))]
        )


@pytest.mark.parametrize(
    "pairs, error, message",
    [
        # a later pair reaches outside the complex: its second side is named
        ([((0, 0), (1, 0)), ((0, 1), (2, 2)), ((0, 2), (1, 1))],
         UnmatchedSide, "side (face 2, side 2) is outside the complex"),
        # every pair is fine, but the lowest side left over is named
        ([((0, 0), (1, 0)), ((1, 2), (0, 1))],
         UnmatchedSide, "side (face 0, side 2) is not glued"),
        ([((0, 0), (1, 0)), ((1, 2), (1, 2)), ((0, 1), (1, 1))],
         SelfGluedSide, "side (face 1, side 2) glued to itself"),
        # the second side of the third pair was already used by the first
        ([((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 0))],
         DuplicateSide, "side (face 1, side 0) appears in two pairs"),
        # an index beyond int64 is still named as given
        ([((0, 0), (1, 0)), ((0, 1), (1, 10**30)), ((0, 2), (1, 1))],
         UnmatchedSide, f"side (face 1, side {10**30}) is outside the complex"),
        # an earlier duplicate wins over a later side outside the complex
        ([((0, 0), (1, 0)), ((1, 0), (0, 1)), ((0, 2), (5, 0))],
         DuplicateSide, "side (face 1, side 0) appears in two pairs"),
        # a non-integer entry is outside the complex, named as written
        ([((0, 0.9), (1, 0)), ((0, 1), (1, 1.5)), ((0, 2), (1, 2))],
         UnmatchedSide, "side (face 0, side 0.9) is outside the complex"),
        ([((0, 0), (1, 0)), ((1.0, 1), (0, 1)), ((0, 2), (1, 2))],
         UnmatchedSide, "side (face 1.0, side 1) is outside the complex"),
        ([((0, 0), (1, 0)), ((0, 1), (1, "1")), ((0, 2), (1, 2))],
         UnmatchedSide, "side (face 1, side 1) is outside the complex"),
        # a bool is not an integer: read as side 1 it would be a duplicate,
        # and read as face 1 or side 0 it would be accepted
        ([((0, True), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))],
         UnmatchedSide, "side (face 0, side True) is outside the complex"),
        ([((0, 0), (True, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))],
         UnmatchedSide, "side (face True, side 0) is outside the complex"),
        ([((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, False))],
         UnmatchedSide, "side (face 1, side False) is outside the complex"),
    ],
)
def test_gluing_errors_name_the_first_offending_side(pairs, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build_complex(2, pairs)


def test_from_dict_rejects_a_pair_that_is_not_two_sides():
    data = {"faces": 2, "gluing": [[[0, 0], [1]], [[0, 1], [1, 2]], [[0, 2], [1, 1]]]}
    with pytest.raises(ValueError, match="shape"):
        TopologicalTriangulation.from_dict(data)


@pytest.mark.parametrize(
    "bad, message",
    [
        ([[0, 0], [0, 0], [1, 1]],
         "gluing pairs must have shape (P, 2, 2), pair 1 is [[0, 0], [0, 0], [1, 1]]"),
        ([[0, 0]], "gluing pairs must have shape (P, 2, 2), pair 1 is [[0, 0]]"),
        ([[0, 1], [1]], "gluing pairs must have shape (P, 2, 2), pair 1 is [[0, 1], [1]]"),
    ],
    ids=["three-sides", "one-side", "short-side"],
)
def test_a_ragged_gluing_names_its_first_bad_pair(bad, message):
    pairs = [[[0, 0], [1, 0]], bad, [[0, 2], [1, 2]], [[0, 1], [1]]]
    with pytest.raises(ValueError) as info:
        build_complex(2, pairs)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        TopologicalTriangulation.from_dict({"faces": 2, "gluing": pairs})
    assert str(info.value) == message


def test_flat_decode_matches_the_array_route():
    T = subdivide(subdivide(genus2_octagon()).complex).complex
    data = T.to_dict()
    pairs = np.asarray(data["gluing"])
    assert pairs.dtype == np.int64
    T2 = TopologicalTriangulation.from_dict(data)
    assert np.array_equal(T2.mate, build_complex(T.face_count, pairs).mate)
    assert np.array_equal(T2.mate, T.mate)
    # numpy ints and tuples take the entry-by-entry route to the same complex
    as_numpy = [tuple(tuple(side) for side in pair) for pair in pairs]
    assert np.array_equal(build_complex(T.face_count, as_numpy).mate, T.mate)


def test_corners_of_vertex_is_built_on_first_access():
    T = TopologicalTriangulation.from_dict(genus2_octagon().to_dict())
    assert "corners_of_vertex" not in T.__dict__
    corners = T.corners_of_vertex
    assert "corners_of_vertex" in T.__dict__
    assert T.corners_of_vertex is corners
    assert corners == derive_union_find(T.face_count, T.mate)["corners_of_vertex"]


_entry = st.integers(-1, 3) | st.sampled_from([0.5, 1.0, True, False])
_side = st.tuples(_entry, _entry)


@given(st.integers(1, 3), st.lists(st.tuples(_side, _side), max_size=8))
def test_gluing_validation_matches_pair_by_pair_loop(faces, pairs):
    try:
        want = gluing_mate_loop(faces, pairs)
    except (UnmatchedSide, SelfGluedSide, DuplicateSide) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            build_complex(faces, pairs)
    else:
        assert np.array_equal(build_complex(faces, pairs).mate, want)


def test_same_face_gluing_allowed():
    # two sides of one face glued to each other is legal
    T = build_complex(2, [((0, 0), (0, 1)), ((0, 2), (1, 0)), ((1, 1), (1, 2))])
    assert T.face_count == 2
    assert 2 * T.edge_count == 3 * T.face_count


def test_relabeling_invariance():
    rng = np.random.default_rng(2)
    T = random_complex(rng, 8)
    perm = rng.permutation(T.face_count)
    pairs = []
    for a, b in T.edges:
        fa, sa = divmod(a, 3)
        fb, sb = divmod(b, 3)
        pairs.append(((int(perm[fa]), sa), (int(perm[fb]), sb)))
    T2 = build_complex(T.face_count, pairs)
    assert T2.chi == T.chi
    assert T2.vertex_count == T.vertex_count


def test_serialization_roundtrip():
    for T in (tetrahedron(), genus2_octagon(), csaszar_torus()):
        T2 = TopologicalTriangulation.from_dict(T.to_dict())
        assert T2 == T
        assert (T2.face_count, T2.edge_count, T2.vertex_count) == (
            T.face_count,
            T.edge_count,
            T.vertex_count,
        )


def test_from_vertex_triples_rejects_ambiguity():
    with pytest.raises(ValueError):
        from_vertex_triples([(0, 1, 2), (0, 1, 3), (0, 1, 4)])  # pair (0,1) thrice


def test_from_vertex_triples_rejects_repeated_vertex():
    with pytest.raises(ValueError):
        from_vertex_triples([(0, 0, 1), (0, 1, 2)])


def test_from_vertex_triples_of_nothing_is_the_empty_complex():
    assert from_vertex_triples([]) == build_complex(0, [])


def test_from_vertex_triples_rejects_the_projective_plane():
    # the hemi-icosahedron: six vertices, ten faces, chi = 1
    rp2 = ["124", "126", "135", "136", "145", "234", "235", "256", "346", "456"]
    with pytest.raises(ValueError, match="not orientable"):
        from_vertex_triples([tuple(int(v) - 1 for v in t) for t in rp2])


def test_from_vertex_triples_rejects_two_tetrahedra():
    tet = [(1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)]
    with pytest.raises(ValueError, match="not connected"):
        from_vertex_triples(tet + [tuple(v + 4 for v in t) for t in tet])


def test_subdivision_counts():
    for T, chi in ((tetrahedron(), 2), (genus2_octagon(), -2), (octagon_cone(), -2)):
        sub = subdivide(T)
        assert sub.complex.face_count == 4 * T.face_count
        assert sub.complex.chi == chi
        assert sub.complex.vertex_count == T.vertex_count + T.edge_count
        # every original edge owns two halves and two medials (one per side)
        assert sub.parent_edge.size == sub.complex.edge_count
        for e in range(T.edge_count):
            mine = sub.parent_edge == e
            assert (mine & ~sub.is_medial).sum() == 2
            assert (mine & sub.is_medial).sum() == 2


@pytest.mark.parametrize(
    "make",
    [tetrahedron, pillow, two_triangle_torus, csaszar_torus, genus2_octagon,
     octagon_cone, octahedron],
)
def test_subdivision_matches_pair_by_pair_loop(make):
    T = make()
    while True:
        got, want = subdivide(T), subdivide_loop(T)
        assert np.array_equal(got.complex.mate, want.complex.mate)
        assert np.array_equal(got.parent_edge, want.parent_edge)
        assert np.array_equal(got.is_medial, want.is_medial)
        if make is not genus2_octagon or T.face_count == 1536:
            break
        T = got.complex


# -- derivation against the union-find oracle --------------------------------------


def assert_matches_union_find(T):
    ref = derive_union_find(T.face_count, T.mate)
    assert (T.edge_count, T.vertex_count) == (ref["edge_count"], ref["vertex_count"])
    assert T.corners_of_vertex == ref["corners_of_vertex"]
    assert all(type(c) is int for cs in T.corners_of_vertex for c in cs)
    for name in ("edges", "edge_of_flag", "vertex_of_corner", "edge_endpoints"):
        got, want = getattr(T, name), ref[name]
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want), name


@pytest.mark.parametrize(
    "make",
    [tetrahedron, pillow, two_triangle_torus, csaszar_torus, genus2_octagon,
     octagon_cone, octahedron],
)
def test_derivation_matches_union_find_on_named_complexes(make):
    assert_matches_union_find(make())


def test_derivation_matches_union_find_on_subdivisions():
    for T in (tetrahedron(), octagon_cone(), genus2_octagon()):
        while T.face_count <= 6144:
            assert_matches_union_find(T)
            T = subdivide(T).complex


def test_derivation_matches_union_find_on_the_empty_complex():
    assert_matches_union_find(build_complex(0, []))


@pytest.mark.parametrize("m", [1025, 4096])
def test_derivation_matches_union_find_on_suspensions(m):
    # each apex of the suspended m-gon is one corner cycle of length m, which
    # the least-corner labels cover only after log2(m) doubling rounds
    T = from_vertex_triples(
        [(i, (i + 1) % m, m) for i in range(m)] + [((i + 1) % m, i, m + 1) for i in range(m)]
    )
    assert (T.vertex_count, T.chi) == (m + 2, 2)
    assert_matches_union_find(T)


@given(st.integers(1, 12).flatmap(
    lambda half: st.permutations(range(6 * half)).map(lambda p: (2 * half, p))
))
def test_derivation_matches_union_find_on_random_gluings(gluing):
    # arbitrary pairings of the sides: loops, multi-edges, same-face gluings
    # and disconnected complexes all occur
    faces, flags = gluing
    pairs = [(divmod(flags[i], 3), divmod(flags[i + 1], 3)) for i in range(0, len(flags), 2)]
    assert_matches_union_find(build_complex(faces, pairs))


def test_vertex_edge_incidence_lists_loops_twice(genus2):
    # the single vertex of the genus-2 octagon is both ends of all nine edges
    assert vertex_edge_incidence(genus2, 0) == [e for e in range(9) for _ in range(2)]

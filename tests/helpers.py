"""Random instance generators shared across the test modules."""

import numpy as np
from scipy.linalg import null_space

from diskflow.angles import AngleSystem, ConformalClassSpec
from diskflow.complexes import TopologicalTriangulation, build_complex
from oracles import is_angle_system


def random_complex(rng: np.random.Generator, faces: int, min_corners: int = 3):
    """Random closed complex whose vertices all have at least ``min_corners``."""
    assert faces % 2 == 0
    while True:
        flags = rng.permutation(3 * faces)
        pairs = [
            (divmod(int(flags[2 * i]), 3), divmod(int(flags[2 * i + 1]), 3))
            for i in range(3 * faces // 2)
        ]
        T = build_complex(faces, pairs)
        if min(len(c) for c in T.corners_of_vertex) >= min_corners:
            return T


def vertex_sum_matrix(T: TopologicalTriangulation) -> np.ndarray:
    """(V, 3F) matrix of the vertex angle sums in partial coordinates."""
    A = np.zeros((T.vertex_count, 3 * T.face_count))
    for corner in range(3 * T.face_count):
        t, c = divmod(corner, 3)
        v = T.vertex_of_corner[corner]
        for s in range(3):
            if s != c:
                A[v, 3 * t + s] += 1.0
    return A


def random_angle_system(T, rng, scale=0.2, tries=400) -> AngleSystem:
    """A random point with corner angles in (0, pi) and vertex sums 2 pi."""
    A = vertex_sum_matrix(T)
    b = np.full(T.vertex_count, 2 * np.pi)
    p0, *_ = np.linalg.lstsq(A, b, rcond=None)
    K = null_space(A)
    for i in range(tries):
        sigma = scale * 0.5 ** (i // 80)
        z = rng.normal(scale=sigma, size=K.shape[1])
        x = AngleSystem(T, p0 + K @ z)
        if is_angle_system(x, tol=1e-6).ok:
            return x
    raise RuntimeError("could not sample a valid angle system")


def edge_multiplicity_matrix(T) -> np.ndarray:
    """(V, E) matrix counting edge endpoints per vertex."""
    M = np.zeros((T.vertex_count, T.edge_count))
    for e in range(T.edge_count):
        for v in T.edge_endpoints[e]:
            M[v, e] += 1.0
    return M


def random_class_spec(T, rng, scale=0.5, tries=400) -> ConformalClassSpec:
    """Random per-edge data with vertex sums 2 pi and values in (0, pi)."""
    M = edge_multiplicity_matrix(T)
    b = np.full(T.vertex_count, 2 * np.pi)
    p0, *_ = np.linalg.lstsq(M, b, rcond=None)
    K = null_space(M)
    for i in range(tries):
        sigma = scale * 0.5 ** (i // 80)
        z = rng.normal(scale=sigma, size=K.shape[1]) if K.shape[1] else np.zeros(0)
        pe = p0 + (K @ z if K.shape[1] else 0.0)
        if np.all(pe > 1e-3) and np.all(pe < np.pi - 1e-3):
            return ConformalClassSpec(T, pe)
    raise RuntimeError("could not sample a valid class spec")


def criterion5_classes(count: int) -> list[ConformalClassSpec]:
    """The first ``count`` classes of acceptance criterion 5's stream: rng
    105, a random complex of 4 to 12 faces, then a random class on it."""
    rng, specs = np.random.default_rng(105), []
    while len(specs) < count:
        T = random_complex(rng, int(rng.choice([4, 6, 8, 10, 12])))
        try:
            specs.append(random_class_spec(T, rng))
        except RuntimeError:
            continue
    return specs


def perturbed_canonical_spec(T, rng, amplitude=0.02) -> ConformalClassSpec:
    """The class of equal corner angles 2 pi / deg at each vertex, moved by
    noise in the kernel of the vertex-edge incidence, so every vertex sum
    stays 2 pi."""
    from diskflow.angles import conformal_class_of, partials_from_angles

    deg = np.array([len(c) for c in T.corners_of_vertex])
    corner = 2 * np.pi / deg[T.vertex_of_corner]
    pe = conformal_class_of(partials_from_angles(T, corner.reshape(-1, 3))).psi_edge
    K = null_space(edge_multiplicity_matrix(T))
    return ConformalClassSpec(T, pe + K @ rng.normal(scale=amplitude, size=K.shape[1]))


def octahedron() -> TopologicalTriangulation:
    from diskflow.complexes import from_vertex_triples

    return from_vertex_triples(
        [
            (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
            (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4),
        ]
    )


def lognormal_class_spec(T, seed, sigma=0.5) -> ConformalClassSpec:
    """Class of log-normal corner weights scaled to 2 pi at each vertex: every
    vertex sum is 2 pi, but at sigma = 0.5 some psi_e fall to 0 or below."""
    from diskflow.angles import conformal_class_of, partials_from_angles

    w = np.random.default_rng([seed, 7]).lognormal(sigma=sigma, size=3 * T.face_count)
    corner = 2 * np.pi * w / np.bincount(T.vertex_of_corner, w)[T.vertex_of_corner]
    return conformal_class_of(partials_from_angles(T, corner.reshape(-1, 3)))


def one_vertex_off_spec(spec, t) -> ConformalClassSpec:
    """``spec`` with the psi_e sum at face 0's corner 0 raised by 2t: the two
    sides meeting there gain t and the side across loses t, so the other two
    corners' vertices, assumed distinct from it, keep their sums."""
    pe = spec.psi_edge.copy()
    pe[spec.complex.edge_of_flag[:3]] += [-t, t, t]
    return ConformalClassSpec(spec.complex, pe)

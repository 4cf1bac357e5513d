import inspect
import json
import re
import warnings

import numpy as np
import pytest

from diskflow.angles import conformal_class_of, edge_psi
from diskflow.cli import build_parser, run
from diskflow.complexes import subdivide, tetrahedron
from diskflow.serialization import (
    class_spec_to_dict,
    dumps_canonical,
    read_json,
    structure_from_dict,
    structure_to_dict,
    write_json,
)
from diskflow.smoothflow import log_ricci_flow
from diskflow.uniformize import assemble_structure, pattern_report, uniformize
from oracles import angle_system_from_dict, mesh_to_dict


@pytest.fixture
def tetra_file(tmp_path):
    path = tmp_path / "tetra.json"
    write_json(path, tetrahedron().to_dict())
    return str(path)


@pytest.fixture
def g2_spec_file(tmp_path, symmetric_g2_system):
    path = tmp_path / "g2_class.json"
    write_json(path, class_spec_to_dict(conformal_class_of(symmetric_g2_system)))
    return str(path)


@pytest.fixture
def cone14_file(tmp_path, cone14_unit):
    path = tmp_path / "mesh.json"
    write_json(path, mesh_to_dict(cone14_unit))
    return str(path)


def test_validate(tetra_file, capsys):
    assert run(["validate", tetra_file]) == 0
    out = capsys.readouterr().out
    assert "F=4 E=6 V=4 chi=2" in out
    assert out.startswith("# diskflow")


def test_validate_missing_file(capsys):
    assert run(["validate", "/nonexistent/x.json"]) == 1


def test_validate_bad_gluing(tmp_path, capsys):
    path = tmp_path / "bad.json"
    write_json(path, {"faces": 2, "gluing": [[[0, 0], [1, 0]], [[0, 1], [1, 2]]]})
    assert run(["validate", str(path)]) == 1


@pytest.mark.parametrize(
    "text, code, message",
    [
        ('{"faces": 1e400, "gluing": []}', 2,
         "ValueError: faces must be an integer in [0, 2**61), got inf"),
        ('{"faces": -3, "gluing": []}', 2,
         "ValueError: faces must be an integer in [0, 2**61), got -3"),
        ('{"faces": 2.0, "gluing": []}', 2,
         "ValueError: faces must be an integer in [0, 2**61), got 2.0"),
        # named before anything of size 3F is allocated
        ('{"faces": 10000000000000, "gluing": []}', 1,
         "UnmatchedSide: side (face 0, side 0) is not glued"),
        ('{"faces": 10000000000000, "gluing": [[[0, 0], [0, 1]], [[1, 0], [0, 2]]]}', 1,
         "UnmatchedSide: side (face 1, side 1) is not glued"),
        # a non-integer side is not truncated into the complex
        ('{"faces": 2, "gluing": [[[0, 0.9], [1, 0]], [[0, 1], [1, 1.5]], [[0, 2], [1, 2]]]}',
         1, "UnmatchedSide: side (face 0, side 0.9) is outside the complex"),
        # nor is a JSON boolean read as side 1
        ('{"faces": 2, "gluing": [[[0, true], [1, 0]], [[0, 1], [1, 1]], [[0, 2], [1, 2]]]}',
         1, "UnmatchedSide: side (face 0, side True) is outside the complex"),
        # a ragged gluing names its first pair that is not two sides of two entries
        ('{"faces": 2, "gluing": [[[0, 0], [1, 0]], [[0, 1], [0, 2], [1, 1]]]}', 2,
         "ValueError: gluing pairs must have shape (P, 2, 2), pair 1 is [[0, 1], [0, 2], [1, 1]]"),
        ('{"faces": 2, "gluing": [[[0, 0], [1, 0]], [[0, 1]]]}', 2,
         "ValueError: gluing pairs must have shape (P, 2, 2), pair 1 is [[0, 1]]"),
    ],
    ids=["inf", "negative", "float", "huge-unglued", "huge-partly-glued", "float-side",
         "bool-side", "three-sided-pair", "one-sided-pair"],
)
def test_validate_bad_face_count(text, code, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run(["validate", str(path)]) == code
    assert capsys.readouterr().err == f"error: {message}\n"


def test_null_in_a_class_is_not_finite(canonical24_spec, tmp_path, capsys):
    data = class_spec_to_dict(canonical24_spec)
    data["psi_edge"]["7"] = None
    path = tmp_path / "class.json"
    path.write_text(json.dumps(data))
    assert run(["uniformize", str(path)]) == 2
    assert "ValueError: value at edge 7 is not finite (nan)" in capsys.readouterr().err


def test_uniformize_end_to_end(g2_spec_file, symmetric_g2_system, tmp_path, capsys):
    out = tmp_path / "structure.json"
    trace = tmp_path / "trace.csv"
    angles = tmp_path / "angles.json"
    code = run(
        ["uniformize", g2_spec_file, "--out", str(out), "--trace", str(trace),
         "--angles-out", str(angles)]
    )
    assert code == 0
    st = structure_from_dict(read_json(out))
    rep = pattern_report(st)
    assert rep.ok and abs(rep.total_area - 4 * np.pi) < 1e-9
    header = trace.read_text().splitlines()[0]
    assert header == "iteration,H,grad_inf,step,worst_length_mismatch"
    # the maximizing angle system is a member of the class it was given
    y = angle_system_from_dict(read_json(angles))
    spec = conformal_class_of(symmetric_g2_system)
    assert y.complex.to_dict() == spec.complex.to_dict()
    assert np.max(np.abs(edge_psi(y) - spec.psi_edge)) <= 1e-9
    # the pattern subcommand accepts the structure file and reports on it
    report = tmp_path / "pattern.json"
    assert run(["pattern", str(out), "--out", str(report)]) == 0
    pattern = read_json(report)
    assert pattern["ok"] is True and pattern["area_target"] == 4 * np.pi


def test_uniformize_deterministic_bytes(tmp_path):
    # the dual's Newton solves and the certificate are deterministic: two
    # runs write the same structure and trace bytes
    from diskflow.angles import find_negative_delaunay
    from diskflow.complexes import genus2_octagon, subdivide
    from helpers import perturbed_canonical_spec
    from oracles import class_ascent

    T = subdivide(subdivide(genus2_octagon()).complex).complex
    spec = perturbed_canonical_spec(T, np.random.default_rng(5))
    path = tmp_path / "class96.json"
    write_json(path, class_spec_to_dict(spec))
    outputs = []
    for run_index in range(2):
        out, trace = tmp_path / f"structure{run_index}.json", tmp_path / f"trace{run_index}.csv"
        assert run(["uniformize", str(path), "--out", str(out), "--trace", str(trace)]) == 0
        outputs.append((out.read_bytes(), trace.read_bytes()))
    assert outputs[0] == outputs[1]
    # the primal Newton from find_negative_delaunay's member takes several steps
    assert len(class_ascent(spec, find_negative_delaunay(spec))[2]) > 2


def test_uniformize_infeasible(tmp_path):
    from helpers import octahedron
    from diskflow.angles import ConformalClassSpec

    T = octahedron()
    spec = ConformalClassSpec(T, np.full(T.edge_count, np.pi / 2))
    path = tmp_path / "bad_class.json"
    write_json(path, class_spec_to_dict(spec))
    assert run(["uniformize", str(path)]) == 2


def test_uniformize_refuses_the_empty_complex(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"complex": {"faces": 0, "gluing": []}, "psi_edge": {}}')
    assert run(["uniformize", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: Infeasible: the empty complex has area 0, so no member is hyperbolic\n"
    )


@pytest.mark.parametrize("kind", ["no Delaunay member", "vertex sum off 2 pi"])
def test_uniformize_refuses_a_class_outside_the_domain(
    tmp_path, capsys, canonical24_spec, kind
):
    # both used to exit 0 with "converged": the first to intersection angles
    # above pi, the second to a cone point
    from helpers import lognormal_class_spec, one_vertex_off_spec

    if kind == "no Delaunay member":
        spec = lognormal_class_spec(subdivide(canonical24_spec.complex).complex, 0)
        expected = r"edge 19 has psi_e -0\.18943\d*, not inside \(0, pi\)"
    else:
        spec = one_vertex_off_spec(canonical24_spec, 0.05)
        expected = r"vertex 0 has psi_e sum 6\.38318\d*, not 2 pi"
    path = tmp_path / "class.json"
    write_json(path, class_spec_to_dict(spec))
    assert run(["uniformize", str(path), "--out", str(tmp_path / "st.json")]) == 2
    assert re.fullmatch(f"error: Infeasible: {expected}\n", capsys.readouterr().err)
    assert not (tmp_path / "st.json").exists()


def test_gauss_bonnet_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [
        "gauss-bonnet", "--surface", "sphere", "--lambda", "3.0",
        "--trials", "6", "--seed", "7",
    ]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().splitlines()[0] == "trial,n,F,estimator"


def test_gauss_bonnet_seed_changes_output(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["gauss-bonnet", "--surface", "sphere", "--lambda", "3.0", "--trials", "6"]
    assert run(base + ["--seed", "7", "--out", str(out1)]) == 0
    assert run(base + ["--seed", "8", "--out", str(out2)]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_quadrature_command(capsys):
    assert run(["quadrature", "--lambda", "15.9154943", "--delta", "0.5235987"]) == 0
    out = capsys.readouterr().out
    assert "estimator=" in out


def test_quadrature_bad_delta():
    assert run(["quadrature", "--lambda", "10.0", "--delta", "3.0"]) == 2


@pytest.mark.parametrize("lam", ["1e6", "1e8", "1e200"])
def test_quadrature_at_large_lambda_is_finite(lam, tmp_path):
    out = tmp_path / "q.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["quadrature", "--lambda", lam, "--delta", "0.5235987", "--out", str(out)]) == 0
    result = read_json(out)
    assert np.isfinite([result["expected_faces"], result["estimator"]]).all()
    # the sphere's face count 2n - 4 is reached in the dense limit
    two_n = 8 * np.pi * float(lam)
    assert abs(result["expected_faces"] - (two_n - 4)) <= 1e-12 * two_n


@pytest.mark.parametrize("lam", ["1e16", "1e200"])
def test_quadrature_estimator_does_not_cancel_at_large_lambda(lam, tmp_path):
    # n Q(2, x) + 2 P(3, x) is 2 to rounding here, where n - E F / 2 cancels to 0
    out = tmp_path / "q.json"
    assert run(["quadrature", "--lambda", lam, "--delta", "0.5235987", "--out", str(out)]) == 0
    assert abs(read_json(out)["estimator"] - 2.0) <= 1e-12


def test_defect_cap(tmp_path, capsys):
    code = run(
        [
            "defect", "--surface", "sphere", "--lambda", "10.0", "--trials", "5",
            "--seed", "3", "--cap-area", "2.0", "--out", str(tmp_path / "d.csv"),
        ]
    )
    assert code == 0
    assert (tmp_path / "d.csv").read_text().splitlines()[0] == "trial,count"


def test_defect_requires_region():
    assert (
        run(["defect", "--surface", "sphere", "--lambda", "5.0", "--trials", "2",
             "--seed", "1"])
        == 2
    )


def test_teleport_and_flow(cone14_file, tmp_path, capsys):
    out = tmp_path / "phi.json"
    assert run(["teleport", cone14_file, "--out", str(out)]) == 0
    phi = np.asarray(read_json(out)["phi"])
    assert np.max(np.abs(phi)) < 1e-10  # background already constant curvature

    report = tmp_path / "flow.json"
    assert run(["flow", cone14_file, "--out", str(report)]) == 0
    data = read_json(report)
    assert data["converged"] is True
    assert data["final_spread"] < 1e-6


def test_flow_with_phi0_and_cap(cone14_file, tmp_path):
    rng = np.random.default_rng(0)
    phi0 = 0.05 * rng.standard_normal(14)
    phi0 -= phi0.mean()
    start = tmp_path / "phi0.json"
    write_json(start, {"phi": phi0})
    assert run(["flow", cone14_file, "--phi0", str(start)]) == 0
    partial = tmp_path / "partial.json"
    code = run(
        ["flow", cone14_file, "--phi0", str(start), "--max-iter", "1",
         "--out", str(partial)]
    )
    assert code == 3
    data = read_json(partial)
    assert data["converged"] is False  # best iterate still reported


def test_flow_on_a_mixed_sign_mesh(tmp_path, capsys):
    from test_smoothflow import random_mixed_sign_mesh

    mesh = random_mixed_sign_mesh(np.random.default_rng(3))
    path = tmp_path / "mixed.json"
    write_json(path, mesh_to_dict(mesh))
    report = tmp_path / "flow.json"
    assert run(["flow", str(path), "--out", str(report)]) == 0
    assert read_json(report)["final_spread"] < 1e-6
    # phi = 0 leaves Lap phi - k = -k, which is not positive where k >= 0
    start = tmp_path / "zeros.json"
    write_json(start, {"phi": np.zeros(mesh.vertex_count)})
    assert run(["flow", str(path), "--phi0", str(start)]) == 2
    assert "OutOfDomain: Lap phi - k is not above 1e-12 at vertex" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["teleport", "flow"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_mesh_is_a_domain_error(command, bad, cone14_unit, tmp_path):
    lengths = cone14_unit.lengths.tolist()
    lengths[0] = bad
    path = tmp_path / "bad_mesh.json"
    # json.dumps writes NaN and Infinity, which json.loads reads back
    path.write_text(json.dumps({"complex": cone14_unit.complex.to_dict(), "lengths": lengths}))
    out = tmp_path / "out.json"
    assert run([command, str(path), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "phi0, message",
    [
        ([0.0] * 5 + [float("nan")] + [0.0] * 8, "vertex 5 is not finite"),
        ([0.0] * 13 + [float("inf")], "vertex 13 is not finite"),
        ([0.0, 0.0], "expected shape (14,)"),
    ],
)
def test_bad_phi0_is_a_domain_error(phi0, message, cone14_file, tmp_path, capsys):
    start = tmp_path / "phi0.json"
    start.write_text(json.dumps({"phi": phi0}))
    out = tmp_path / "flow.json"
    assert run(["flow", cone14_file, "--phi0", str(start), "--out", str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_class_is_a_domain_error(bad, canonical24_spec, tmp_path, capsys):
    data = class_spec_to_dict(canonical24_spec)
    data["psi_edge"]["7"] = bad
    path = tmp_path / "bad_class.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "structure.json"
    assert run(["uniformize", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "ValueError: value at edge 7 is not finite" in err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("intersection_angles", [1, 2], "expected shape (9,), one value per edge, got (2,)"),
        ("intersection_angles", 1, "expected shape (9,), one value per edge, got ()"),
        ("edge_lengths", None, "expected shape (9,), one value per edge, got ()"),
        ("face_angles", [], "expected shape (6, 3), one value per corner, got (0,)"),
        ("circumradii", [1.0] * 5 + [float("nan")], "value at face 5 is not finite (nan)"),
    ],
)
def test_mis_shaped_structure_is_a_domain_error(
    key, value, message, symmetric_g2_system, tmp_path, capsys
):
    data = json.loads(dumps_canonical(structure_to_dict(assemble_structure(symmetric_g2_system))))
    data[key] = value
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(data))  # NaN, which json.loads reads back
    assert run(["pattern", str(path)]) == 2
    assert capsys.readouterr().err == f"error: ValueError: {key}: {message}\n"


@pytest.mark.parametrize("kind", ["mesh", "class", "structure", "phi0"])
def test_nested_value_is_named_by_its_flat_index(
    kind, cone14_unit, cone14_file, canonical24_spec, symmetric_g2_system, tmp_path, capsys
):
    path = tmp_path / "bad.json"
    if kind == "mesh":
        data = json.loads(dumps_canonical(mesh_to_dict(cone14_unit)))
        data["lengths"][3] = [1]
        argv, message = ["teleport", str(path)], "value at edge 3 is not a number ([1])"
    elif kind == "class":
        data = json.loads(dumps_canonical(class_spec_to_dict(canonical24_spec)))
        data["psi_edge"]["7"] = [1]
        argv, message = ["uniformize", str(path)], "value at edge 7 is not a number ([1])"
    elif kind == "structure":
        data = json.loads(dumps_canonical(structure_to_dict(assemble_structure(symmetric_g2_system))))
        data["face_angles"][2][1] = [1]
        argv = ["pattern", str(path)]
        message = "face_angles: value at corner 7 is not a number ([1])"
    else:
        data = {"phi": [0.0] * 13 + [[1]]}
        argv, message = ["flow", cone14_file, "--phi0", str(path)], (
            "value at vertex 13 is not a number ([1])"
        )
    path.write_text(json.dumps(data))
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: ValueError: {message}\n"


def test_unknown_command_exits_nonzero(capsys):
    assert run(["frobnicate"]) == 1


MC = ["--trials", "2", "--seed", "1"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gauss-bonnet", "--lambda", "5", "--trials", "0", "--seed", "1"], "--trials"),
        (["gauss-bonnet", "--lambda", "nan", *MC], "--lambda"),
        (["gauss-bonnet", "--lambda", "inf", *MC], "--lambda"),
        (["gauss-bonnet", "--lambda", "5", *MC, "--jobs", "-3"], "--jobs"),
        (["defect", "--lambda", "5", "--trials", "0", "--seed", "1", "--cap-area", "2"],
         "--trials"),
        (["defect", "--lambda", "inf", *MC, "--cap-area", "2"], "--lambda"),
        (["defect", "--lambda", "5", *MC, "--cap-area", "-1"], "--cap-area"),
        (["defect", "--lambda", "5", *MC, "--cap-area", "20"], "--cap-area"),
        (["defect", "--lambda", "5", *MC, "--cap-area", "nan"], "--cap-area"),
        (["defect", "--surface", "torus", "--lambda", "50", *MC,
          "--rect", "0.75", "0.75", "0.25", "0.25"], "--rect"),
        (["defect", "--surface", "torus", "--lambda", "50", *MC,
          "--rect", "0.75", "0.25", "0.25", "0.75"], "--rect"),
        (["defect", "--surface", "torus", "--lambda", "50", *MC,
          "--rect", "0.5", "0.5", "1.5", "0.75"], "--rect"),
        (["defect", "--surface", "torus", "--lambda", "50", *MC,
          "--rect", "nan", "0", "0.5", "0.5"], "--rect"),
        (["defect", "--surface", "torus", "--lambda", "50", *MC, "--jobs", "0",
          "--rect", "0", "0", "0.5", "0.5"], "--jobs"),
        (["gauss-bonnet", "--surface", "torus", "--torus-width", "nan", "--lambda", "50", *MC],
         "--torus-width"),
        (["defect", "--surface", "torus", "--torus-height", "inf", "--lambda", "50", *MC,
          "--rect", "0", "0", "0.5", "0.5"], "--torus-height"),
        (["quadrature", "--lambda", "nan", "--delta", "0.5"], "--lambda"),
        # above numpy's Poisson limit once multiplied by the area
        (["gauss-bonnet", "--lambda", "1e30", *MC], "--lambda"),
        (["defect", "--lambda", "1e30", *MC, "--cap-area", "2"], "--lambda"),
        # twice the area times lambda overflows: the face count is not a float
        (["quadrature", "--lambda", "1e308", "--delta", "0.5"], "--lambda"),
        # a region of the other surface
        (["defect", "--surface", "torus", "--lambda", "50", *MC, "--cap-area", "2"],
         "--cap-area"),
        (["defect", "--lambda", "5", *MC, "--rect", "0", "0", "0.5", "0.5"], "--rect"),
    ],
)
def test_bad_monte_carlo_flag_is_a_domain_error(argv, flag, tmp_path, capsys):
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"error: BadParameter: {flag} " in err


@pytest.mark.parametrize("command", ["uniformize", "flow"])
@pytest.mark.parametrize(
    "extra, flag",
    [
        (["--max-iter", "-1"], "--max-iter"),
        (["--tol", "nan"], "--tol"),
        (["--tol", "-1"], "--tol"),
        (["--tol", "0"], "--tol"),
        (["--tol", "inf"], "--tol"),
    ],
)
def test_bad_solver_flag_is_a_domain_error(
    command, extra, flag, canonical24_spec, cone14_file, tmp_path, capsys
):
    if command == "uniformize":
        path = tmp_path / "class.json"
        write_json(path, class_spec_to_dict(canonical24_spec))
        source = str(path)
    else:
        source = cone14_file
    out = tmp_path / "out.json"
    assert run([command, source, *extra, "--out", str(out)]) == 2
    assert not out.exists()
    assert f"error: BadParameter: {flag} " in capsys.readouterr().err


@pytest.mark.parametrize("command, solver", [("uniformize", uniformize), ("flow", log_ricci_flow)])
def test_solver_flag_defaults_are_the_library_defaults(command, solver):
    args = build_parser().parse_args([command, "input.json"])
    defaults = inspect.signature(solver).parameters
    assert (args.tol, args.max_iter) == (defaults["tol"].default, defaults["max_iter"].default)


def test_sample_beyond_memory_is_too_large(tmp_path, capsys):
    # below numpy's Poisson limit, but n ~ 1.3e16 points cannot be allocated
    out = tmp_path / "gb.csv"
    argv = ["gauss-bonnet", "--lambda", "1e15", "--trials", "1", "--seed", "1"]
    assert run(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    assert re.search(r"error: TooLarge: the \d{17} points", capsys.readouterr().err)


def test_one_trial_starts_no_pool(tmp_path, monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    outputs = []
    for jobs in ("6", "1"):
        out = tmp_path / f"jobs{jobs}.csv"
        with monkeypatch.context() as m:
            m.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
            assert run(["gauss-bonnet", "--lambda", "5", "--trials", "1", "--seed", "1",
                        "--jobs", jobs, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_full_torus_rect_and_sphere_cap_are_accepted(capsys):
    assert run(["defect", "--surface", "torus", "--lambda", "20", *MC,
                "--rect", "0", "0", "1", "1"]) == 0
    assert run(["defect", "--lambda", "5", *MC, "--cap-area", str(4 * np.pi)]) == 0


def test_repeated_calls_in_one_process_give_the_same_bytes(
    cone14_file, g2_spec_file, canonical24_spec, tmp_path, capsys
):
    # one parser serves every call of a process: no call may leave state
    # behind that changes a later call's stdout, stderr or files
    start = tmp_path / "phi0.json"
    write_json(start, {"phi": 0.01 * np.sin(np.arange(14))})
    # the circle-pattern dual meets the symmetric class's maximizer exactly,
    # with class gradient 0, so the capped call takes the 24-face class
    capped = tmp_path / "class24.json"
    write_json(capped, class_spec_to_dict(canonical24_spec))
    out = tmp_path / "out.json"
    trace = tmp_path / "trace.csv"
    calls = [
        ["flow", cone14_file, "--phi0", str(start), "--out", str(out)],
        ["flow", cone14_file, "--out", str(out)],
        ["uniformize", str(capped), "--max-iter", "3", "--tol", "1e-300",
         "--trace", str(trace)],
        ["flow", cone14_file, "--max-iter", "many"],
        ["uniformize", g2_spec_file, "--out", str(out), "--trace", str(trace)],
    ]

    def call(argv):
        for path in (out, trace):
            path.unlink(missing_ok=True)
        code = run(argv)
        files = tuple(p.read_bytes() if p.exists() else None for p in (out, trace))
        return code, capsys.readouterr(), files

    first = [call(argv) for argv in calls]
    assert [code for code, _, _ in first] == [0, 0, 3, 1, 0]
    assert first[2][2][1].startswith(b"iteration,")  # the capped run's trace
    for i in [0, 4, 3, 2, 1, 0]:
        assert call(calls[i]) == first[i], calls[i]

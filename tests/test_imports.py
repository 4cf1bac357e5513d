"""Import boundary of the command line: a fresh interpreter loads only the
scipy subpackages the subcommand it runs uses.  The package re-exports no
name, so a submodule imports as itself and loads only what it uses, and the
README's example imports each name from its module."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diskflow

SRC = Path(diskflow.__file__).resolve().parents[1]
HEAVY = ["scipy.optimize", "scipy.integrate", "scipy.sparse.linalg", "scipy.sparse.csgraph"]
LAZY = ["scipy.sparse", "scipy.spatial", "scipy.special"]


def _python(code: str) -> str:
    """Stdout of ``code`` run in a new interpreter that imports diskflow from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout


def _fresh(code: str) -> dict:
    """``_python(code)``'s last stdout line, one JSON object."""
    return json.loads(_python(code).splitlines()[-1])


LOADED = f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
LOADED_LAZY = f"print(json.dumps([m for m in {LAZY!r} if m in sys.modules]))"
# every scipy subpackage in sys.modules, by its top-level name
SUBPACKAGES = (
    "print(json.dumps(sorted({m.split('.')[1] for m in sys.modules\n"
    "    if m.startswith('scipy.') and not m.split('.')[1].startswith('_')})))"
)


def _run_loads(argv: list, listing: str) -> list:
    """``listing``'s output after ``run(argv)`` succeeds in a fresh interpreter."""
    return _fresh(
        "import json, sys\nfrom diskflow.cli import run\n"
        f"code = run({argv!r})\n"
        "assert code == 0, code\n"
        f"{listing}"
    )


def test_cli_import_loads_no_solver_or_quadrature_scipy():
    assert _fresh(f"import json, sys\nimport diskflow.cli\n{LOADED}") == []


def test_cli_import_loads_no_sparse_spatial_or_special():
    assert _fresh(f"import json, sys\nimport diskflow.cli\n{LOADED_LAZY}") == []


def test_quadrature_loads_special_alone():
    argv = ["quadrature", "--lambda", "15.915494", "--delta", "0.5235987"]
    assert _run_loads(argv, LOADED_LAZY) == ["scipy.special"]


def test_gauss_bonnet_loads_what_scipy_spatial_loads(tmp_path):
    # scipy.spatial.distance imports scipy.special when scipy.spatial loads,
    # so the triangulating subcommands cannot skip it; they add nothing more
    argv = ["gauss-bonnet", "--lambda", "20", "--trials", "1", "--seed", "1",
            "--out", str(tmp_path / "gb.csv")]
    spatial = _fresh(f"import json, sys\nimport scipy.spatial\n{SUBPACKAGES}")
    assert _run_loads(argv, SUBPACKAGES) == spatial
    assert {"spatial", "special"} <= set(spatial)


def test_uniformize_teleport_and_flow_load_no_spatial_or_special(cli_inputs, certified_class, tmp_path):
    runs = [
        ["uniformize", certified_class],
        ["teleport", cli_inputs["mesh"], "--out", str(tmp_path / "phi.json")],
        ["flow", cli_inputs["mesh"]],
    ]
    for argv in runs:
        assert _run_loads(argv, LOADED_LAZY) == ["scipy.sparse"], argv[0]


def test_validate_and_pattern_load_no_scipy_subpackage(cli_inputs):
    loaded = _fresh(
        "import json, sys\nfrom diskflow.cli import run\n"
        f"assert run(['validate', {cli_inputs['complex']!r}]) == 0\n"
        f"assert run(['pattern', {cli_inputs['structure']!r}]) == 0\n"
        f"{SUBPACKAGES}"
    )
    assert loaded == []


def test_cli_import_builds_no_parser():
    # the parser is built by the first ``run``, so importing the CLI skips it
    assert _fresh(
        "import json\nimport diskflow.cli\n"
        "print(json.dumps(diskflow.cli.build_parser.cache_info().currsize))"
    ) == 0


def test_cli_import_still_loads_every_submodule():
    names = sorted(
        p.stem for p in (SRC / "diskflow").glob("*.py") if p.stem != "__init__"
    )
    loaded = _fresh(
        "import json, sys\nimport diskflow.cli\n"
        f"print(json.dumps([n for n in {names!r} if 'diskflow.' + n in sys.modules]))"
    )
    assert loaded == names


def test_submodule_import_binds_the_module():
    # a package attribute of a submodule's name would shadow it here
    names = _fresh(
        "import json, types\nimport diskflow.uniformize as U\nimport diskflow.delaunay as D\n"
        "print(json.dumps([isinstance(m, types.ModuleType) and m.__name__ for m in (U, D)]))"
    )
    assert names == ["diskflow.uniformize", "diskflow.delaunay"]


def test_complexes_import_loads_its_own_modules_and_no_scipy():
    loaded = _fresh(
        "import json, sys\nimport diskflow.complexes\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'diskflow'),\n"
        "    'scipy' in sys.modules]))"
    )
    assert loaded == [["diskflow", "diskflow.complexes", "diskflow.errors"], False]


def test_readme_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    area, chi = _python(code).splitlines()
    assert abs(float(area) - 4 * np.pi) < 1e-9
    mean, std_error = map(float, chi.split())
    assert abs(mean - 2) < 4 * std_error


@pytest.mark.parametrize(
    "argv, head",
    [
        (["gauss-bonnet", "--lambda", "20", "--trials", "1", "--seed", "1"],
         "trial,n,F,estimator\n"),
        (["quadrature", "--lambda", "15.915494", "--delta", "0.5235987"], '{"estimator":'),
    ],
    ids=["gauss-bonnet", "quadrature"],
)
def test_run_loads_no_solver_or_quadrature_scipy(argv, head, tmp_path):
    out = tmp_path / "out"
    loaded = _fresh(
        "import json, sys\nfrom diskflow.cli import run\n"
        f"code = run({argv + ['--out', str(out)]!r})\n"
        "assert code == 0, code\n"
        f"{LOADED}"
    )
    assert loaded == []
    assert out.read_text().startswith(head)


@pytest.fixture
def certified_class(tmp_path):
    """The canonical F=96 genus-2 class as a file: the circle-pattern dual
    converges on it, so the margin LP, and scipy.optimize with it, never
    runs."""
    from diskflow.angles import conformal_class_of, partials_from_angles
    from diskflow.complexes import genus2_octagon, subdivide
    from diskflow.serialization import class_spec_to_dict, write_json
    from diskflow.uniformize import _dual_member

    T = subdivide(subdivide(genus2_octagon()).complex).complex
    deg = np.array([len(c) for c in T.corners_of_vertex])
    spec = conformal_class_of(partials_from_angles(T, 2 * np.pi / deg[T.vertex_of_corner]))
    assert _dual_member(spec) is not None
    path = tmp_path / "class.json"
    write_json(path, class_spec_to_dict(spec))
    return str(path)


def test_uniformize_of_a_certified_class_loads_no_lp_solver(certified_class):
    loaded = _fresh(
        "import json, sys\nfrom diskflow.cli import run\n"
        f"assert run(['uniformize', {certified_class!r}]) == 0\n"
        f"{LOADED}"
    )
    assert loaded == ["scipy.sparse.linalg"]


def test_uniformize_of_a_class_with_no_interior_equal_area_member_loads_no_lp_solver(tmp_path):
    # the first feasible class of criterion 5's stream whose equal-area
    # member has a corner or a defect below the margin floor: the dual,
    # seeded from the class alone, converges, so the LP that would otherwise
    # find the start never runs
    from diskflow.angles import MARGIN_FLOOR, find_negative_delaunay, interior_margin
    from diskflow.errors import Infeasible
    from diskflow.serialization import class_spec_to_dict, write_json

    from helpers import criterion5_classes
    from oracles import equal_area_member

    for spec in criterion5_classes(20):
        try:
            find_negative_delaunay(spec)
        except Infeasible:
            continue
        if interior_margin(equal_area_member(spec)) < MARGIN_FLOOR:
            break
    else:
        raise AssertionError("no feasible class with an exterior equal-area member")
    path = str(tmp_path / "class.json")
    write_json(path, class_spec_to_dict(spec))
    assert _run_loads(["uniformize", path], LOADED) == ["scipy.sparse.linalg"]


def test_uniformize_loads_the_lp_solver_only_outside_the_domain(
    cli_inputs, canonical24_spec, tmp_path
):
    # the circle-pattern dual converges on the F=24 class, so no LP runs;
    # the octahedron's class has no interior member, the dual declines, and
    # the LP gives its verdict
    from diskflow.serialization import class_spec_to_dict, write_json

    path = str(tmp_path / "class24.json")
    write_json(path, class_spec_to_dict(canonical24_spec))
    loaded = _fresh(
        f"import json, sys\nfrom diskflow.cli import run\nheavy = {HEAVY!r}\n"
        f"assert run(['uniformize', {path!r}]) == 0\n"
        "interior = [m for m in heavy if m in sys.modules]\n"
        f"assert run(['uniformize', {cli_inputs['infeasible']!r}]) == 2\n"
        "print(json.dumps([interior, [m for m in heavy if m in sys.modules]]))"
    )
    assert loaded == [["scipy.sparse.linalg"], ["scipy.optimize", "scipy.sparse.linalg"]]


@pytest.fixture
def cli_inputs(tmp_path, symmetric_g2_system, cone14_unit):
    """Input files for the subcommands that read one: a complex, a structure,
    a feasible class, a class the margin LP refuses, and a mesh."""
    from helpers import octahedron
    from diskflow.angles import ConformalClassSpec, conformal_class_of
    from diskflow.complexes import tetrahedron
    from diskflow.serialization import class_spec_to_dict, structure_to_dict, write_json
    from diskflow.uniformize import assemble_structure
    from oracles import mesh_to_dict

    T = octahedron()
    files = {
        "complex": tetrahedron().to_dict(),
        "structure": structure_to_dict(assemble_structure(symmetric_g2_system)),
        "class": class_spec_to_dict(conformal_class_of(symmetric_g2_system)),
        "infeasible": class_spec_to_dict(ConformalClassSpec(T, np.full(T.edge_count, np.pi / 2))),
        "mesh": mesh_to_dict(cone14_unit),
    }
    for name, data in files.items():
        write_json(tmp_path / f"{name}.json", data)
    return {name: str(tmp_path / f"{name}.json") for name in files}


def test_no_subcommand_loads_csgraph(cli_inputs, tmp_path):
    runs = [
        (["validate", cli_inputs["complex"]], 0),
        (["pattern", cli_inputs["structure"]], 0),
        (["uniformize", cli_inputs["class"]], 0),
        (["uniformize", cli_inputs["infeasible"]], 2),  # the margin LP runs
        (["gauss-bonnet", "--lambda", "20", "--trials", "1", "--seed", "1",
          "--out", str(tmp_path / "gb.csv")], 0),
        (["quadrature", "--lambda", "15.915494", "--delta", "0.5235987"], 0),
        (["defect", "--surface", "torus", "--lambda", "50", "--trials", "1", "--seed", "1",
          "--rect", "0", "0", "0.5", "0.5", "--out", str(tmp_path / "defect.csv")], 0),
        (["teleport", cli_inputs["mesh"], "--out", str(tmp_path / "phi.json")], 0),
        (["flow", cli_inputs["mesh"]], 0),
    ]
    loaded = _fresh(
        "import json, sys\nfrom diskflow.cli import run\n"
        f"codes = [run(argv) for argv, _ in {runs!r}]\n"
        "print(json.dumps([codes, 'scipy.sparse.csgraph' in sys.modules]))"
    )
    assert loaded == [[code for _, code in runs], False]


def test_delaunay_module_keeps_its_scipy_names():
    names = _fresh(
        "import importlib, json\n"
        "module = importlib.import_module('diskflow.delaunay')\n"
        "print(json.dumps([n for n in ('ConvexHull', 'PlanarDelaunay') if hasattr(module, n)]))"
    )
    assert names == ["ConvexHull", "PlanarDelaunay"]


def test_delaunay_holds_its_scipy_names_without_loading_scipy():
    # the bench tracer reads each name with getattr, then patches the module
    # entry that is the same object; scipy.spatial loads on the first call
    state = _fresh(
        "import importlib, json, sys\n"
        "module = importlib.import_module('diskflow.delaunay')\n"
        "from diskflow.surfaces import SurfaceModel, sample_poisson\n"
        "names = ('ConvexHull', 'PlanarDelaunay')\n"
        "held = [n in vars(module) for n in names]\n"
        "same = [getattr(module, n) is vars(module)[n] for n in names]\n"
        "after_getattr = 'scipy.spatial' in sys.modules\n"
        "module.delaunay(sample_poisson(SurfaceModel.sphere(), 40.0, seed=1))\n"
        "print(json.dumps([held, same, after_getattr, 'scipy.spatial' in sys.modules]))"
    )
    assert state == [[True, True], [True, True], False, True]


def test_delaunay_calls_its_patched_scipy_names(monkeypatch):
    from diskflow.surfaces import SurfaceModel, sample_poisson

    module = importlib.import_module("diskflow.delaunay")
    calls = []
    for name in ("ConvexHull", "PlanarDelaunay"):
        def spy(points, original=getattr(module, name), name=name):
            calls.append(name)
            return original(points)

        monkeypatch.setattr(module, name, spy)
    module.delaunay(sample_poisson(SurfaceModel.sphere(), 40.0, seed=1))
    assert calls == ["ConvexHull"]
    module.delaunay(sample_poisson(SurfaceModel.torus(), 60.0, seed=1))
    assert calls[0] == "ConvexHull" and set(calls[1:]) == {"PlanarDelaunay"}


def test_parallel_defect_forks_nothing(tmp_path):
    # trials run on threads: no process pool, and no multiprocessing, is loaded
    out = tmp_path / "defect.csv"
    argv = ["defect", "--surface", "torus", "--lambda", "50", "--trials", "4", "--seed", "1",
            "--rect", "0", "0", "0.5", "0.5", "--jobs", "2", "--out", str(out)]
    modules = ["multiprocessing", "concurrent.futures.process", "concurrent.futures.thread"]
    loaded = _fresh(
        "import json, sys\nfrom diskflow.cli import run\nfrom diskflow.estimators import _usable_cores\n"
        f"assert run({argv!r}) == 0\n"
        f"print(json.dumps([_usable_cores(), [m for m in {modules!r} if m in sys.modules]]))"
    )
    cores, names = loaded
    assert names == (["concurrent.futures.thread"] if cores > 1 else [])
    assert out.read_text().startswith("trial,")

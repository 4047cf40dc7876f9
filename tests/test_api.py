"""The public surface: every exported name exists, the package re-exports
exactly the names its library submodules export, no name comes from two of
them, README's examples run against it, the three routes meet only in the
CLI, and every name the benchmark's spans wrap is still there to wrap."""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import stochstore

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
PERFBENCH_SPANS = ROOT / "perfbench" / "spans.py"

LIBRARY_MODULES = ("distributions", "storage", "balance", "montecarlo", "scenario")
MODULES = ("stochstore", "stochstore.cli", *(f"stochstore.{name}" for name in LIBRARY_MODULES))


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def _library_exports():
    """Library module name -> its ``__all__``."""
    return {name: importlib.import_module(f"stochstore.{name}").__all__ for name in LIBRARY_MODULES}


def test_no_name_is_exported_by_two_library_modules():
    # The package star-imports every library module, so a name in two
    # modules' __all__ would silently take the later module's object.
    owners = {}
    for module, names in _library_exports().items():
        for name in names:
            owners.setdefault(name, []).append(module)
    shared = {name: modules for name, modules in owners.items() if len(modules) > 1}
    assert not shared, f"names exported by more than one library module: {shared}"


def test_package_exports_come_from_library_modules():
    # Equality: each library module's __all__ is the one declaration of its
    # public names, and the package re-exports all of them and nothing else.
    exported = [name for names in _library_exports().values() for name in names]
    assert sorted(stochstore.__all__) == sorted(["__version__", *exported])


def _readme_block(language):
    """The body of README's one code block fenced as ``language``."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, f"README has {len(blocks)} {language} blocks"
    return blocks[0]


def test_readme_examples_run(capsys):
    exec(compile(_readme_block("python"), str(README), "exec"), {})
    p_grid, p_exact = map(float, capsys.readouterr().out.split())
    assert p_grid == pytest.approx(p_exact, abs=1e-3)
    assert stochstore.parse_scenario(_readme_block("json")).name == "fig2_battery"


def _module_tree(name):
    path = Path(importlib.import_module(f"stochstore.{name}").__file__)
    return ast.parse(path.read_text(encoding="utf-8"))


def test_routes_meet_only_in_the_cli():
    # The sampler forms its own storage windows: it imports nothing of the
    # grid or the closed form, so a fault there cannot move it too.
    imports = [
        node
        for node in ast.walk(_module_tree("montecarlo"))
        if (isinstance(node, ast.ImportFrom) and (node.module or "").endswith("balance"))
        or (isinstance(node, ast.Import) and any(a.name.endswith("balance") for a in node.names))
    ]
    assert not imports, "montecarlo imports from balance"
    # No grid-route code calls the closed form.
    grid_route = {
        "discretize",
        "difference_density",
        "point_mass_balance",
        "self_sufficiency",
        "_refined_cum",
        "_GridMeasure",
        "DensityGrid",
        "_CellBalance",
        "_PointMassBalance",
    }
    tree = _module_tree("balance")
    defs = [node for node in tree.body if getattr(node, "name", None) in grid_route]
    assert len(defs) == len(grid_route)
    for node in defs:
        names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        assert "weibull_closed_form" not in names, node.name
    # The CLI reaches each analytic route through one function: the grid's
    # kernels are named only in _grid, the closed form only in _closed_form.
    named_in = {}
    for node in _module_tree("cli").body:
        if isinstance(node, ast.FunctionDef):
            for n in ast.walk(node):
                if isinstance(n, ast.Name):
                    named_in.setdefault(n.id, set()).add(node.name)
    for kernel in ("discretize", "difference_density", "point_mass_balance", "self_sufficiency"):
        assert named_in.get(kernel) == {"_grid"}, (kernel, named_in.get(kernel))
    assert named_in.get("weibull_closed_form") == {"_closed_form"}


def test_perfbench_spans_find_every_name_they_wrap(monkeypatch):
    # perfbench/spans.py wraps program functions by module attribute name, and
    # a group whose names are all gone drops its per-layer metrics from a
    # traced run.  The wrapped estimate calls must also still fit its counters.
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH_SPANS)
    spans = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while it runs.
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    from stochstore import cli, montecarlo

    before = vars(cli).copy(), vars(montecarlo).copy()
    gen, dem = stochstore.Deterministic(2.0), stochstore.Weibull(2.0, 5.0)
    storage = stochstore.StorageSpec(0.0, 5.0, 0.0)
    with spans.Instrumentation(spans.SpanRecorder()) as traced:
        missing = {group for _, group, _ in spans.LAYER_METRICS} - traced.present
        assert not missing, f"perfbench wraps no program function for {sorted(missing)}"
        cli.sweep_battery_levels(gen.value, dem, storage, [0.0, 5.0], 100, 0)
        montecarlo.estimate_self_sufficiency(gen, dem, storage, 0.0, 100, 0)
        assert not traced.recorder.failed_counters
    assert (vars(cli), vars(montecarlo)) == before

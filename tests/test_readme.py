"""The package's public surface as its readers see it: README.md's examples
run as written and show what their comments claim, README's API list is the
package's exports, every module attribute README names exists, and every
name the benchmark (bench/) reads exists."""

import importlib
import importlib.util
import inspect
import pkgutil
import re
import types
from pathlib import Path

import sparsebounds

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
BENCH = ROOT / "bench"


def test_library_quick_start():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["space"].w == 4
    assert namespace["cert"].satisfied
    assert namespace["report"].best_lhs == 4


def readme_api():
    """{name: module} of README's "Public API" list: one "- `module`: `name`,
    ..." item per module, an item's names possibly over several lines."""
    section = re.search(r"^## Public API\n(.*?)^## ", README.read_text(), re.M | re.S)[1]
    api = {}
    for module, names in re.findall(r"^- `(\w+)`:(.*?)(?=^- |^\n|\Z)", section, re.M | re.S):
        for name in re.findall(r"`(\w+)`", names):
            api[name] = module
    return api


def test_api_list_matches_exports():
    exports = {name for name, value in vars(sparsebounds).items()
               if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    api = readme_api()
    assert sorted(api) == sorted(exports)
    for name, module in api.items():
        assert getattr(sparsebounds, name).__module__ == f"sparsebounds.{module}", name


def test_module_names_in_readme_exist():
    # Each backticked `module.name` whose module is one of the package's, or
    # the tests' referees, names an attribute of that module: a README that
    # names a deleted helper fails here.
    modules = {info.name: f"sparsebounds.{info.name}"
               for info in pkgutil.iter_modules(sparsebounds.__path__)}
    modules["referees"] = "referees"
    named = {(module, name) for module, name in re.findall(r"`(\w+)\.(\w+)`", README.read_text())
             if module in modules}
    assert {("config", "_valid_array"), ("oracle", "BATCH"), ("referees", "eb_rhs")} <= named
    for module, name in sorted(named):
        assert hasattr(importlib.import_module(modules[module]), name), f"{module}.{name}"


def bench_reads():
    """Every package name bench/ reads: each "layer.function" given to a
    tracer's calls or calls_under, whose traced function must exist or the
    traced run dies, and each sb.<name> or sb.<module>.<name>."""
    traced, attributes = set(), set()
    for path in sorted(BENCH.glob("*.py")):
        text = path.read_text()
        for args in re.findall(r"\bcalls(?:_under)?\(([^)]*)\)", text):
            traced.update(re.findall(r"\"(\w+\.\w+)\"", args))
        attributes.update(name for name in re.findall(r"\bsb\.(\w+(?:\.\w+)?)", text)
                          if not name.startswith("__"))
    return traced, attributes


def test_names_the_bench_reads_exist():
    traced, attributes = bench_reads()
    assert {"bounds.fixedpoint_residuals", "oracle.min_sparsity_product"} <= traced
    assert {"generate", "cli.main", "oracle.null_space_basis"} <= attributes
    for name in sorted(traced):
        # What bench/tracer.py wraps: a public function of the layer's module.
        layer, function = name.split(".")
        module = importlib.import_module(f"sparsebounds.{layer}")
        fn = getattr(module, function, None)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name
    for name in sorted(attributes):
        head, _, rest = name.partition(".")
        if rest and importlib.util.find_spec(f"sparsebounds.{head}"):
            importlib.import_module(f"sparsebounds.{head}")  # as bench imports sparsebounds.cli
        value = sparsebounds
        for part in name.split("."):
            assert not part.startswith("_") and hasattr(value, part), name
            value = getattr(value, part)

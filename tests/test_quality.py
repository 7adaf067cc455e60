"""Repository-level quality gates: public API documentation and
package layout invariants."""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.cpp",
    "repro.pdbfmt",
    "repro.analyzer",
    "repro.ductape",
    "repro.tools",
    "repro.tau",
    "repro.siloon",
    "repro.fortran",
    "repro.java",
    "repro.baselines",
    "repro.workloads",
]


def all_modules():
    out = []
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        out.append(pkg)
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                out.append(importlib.import_module(f"{pkg_name}.{info.name}"))
    return out


@pytest.mark.parametrize("module", all_modules(), ids=lambda m: m.__name__)
def test_every_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), f"{module.__name__} lacks a docstring"


def public_classes_and_functions():
    out = []
    for module in all_modules():
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-exports documented at their definition
            if inspect.isclass(obj) or inspect.isfunction(obj):
                out.append((f"{module.__name__}.{name}", obj))
    return out


@pytest.mark.parametrize(
    "qualname,obj", public_classes_and_functions(), ids=lambda x: x if isinstance(x, str) else ""
)
def test_public_items_documented(qualname, obj):
    assert obj.__doc__ and obj.__doc__.strip(), f"{qualname} lacks a doc comment"


def test_version_exposed():
    assert repro.__version__


def test_public_api_importable():
    from repro import (  # noqa: F401
        Frontend,
        FrontendOptions,
        ILAnalyzer,
        InstantiationMode,
        PDB,
        PdbDocument,
        analyze,
        parse_pdb,
        write_pdb,
    )


def test_entry_points_resolve():
    """Every console script declared in pyproject must import and expose
    a main() callable."""
    import tomllib

    with open("pyproject.toml", "rb") as f:
        data = tomllib.load(f)
    for name, target in data["project"]["scripts"].items():
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr)), f"{name} -> {target} not callable"


def test_uncalled_allowlist_names_existing_functions():
    """Every entry of the uncalled-function allow-list
    (``tests/uncalled_allowlist.txt``) names a function defined under
    ``src/``, so an entry cannot outlive the function it excuses."""
    from tests.uncalled import defined_functions, read_allowlist

    assert read_allowlist() - set(defined_functions().values()) == set()

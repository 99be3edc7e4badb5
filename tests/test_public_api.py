"""Public API surface tests: everything advertised in ``__all__``
resolves, and the package version matches the build metadata."""

from __future__ import annotations

import pytest

import repro
import repro.comm
import repro.des
import repro.engine
import repro.eval
import repro.experiments
import repro.ftcpg
import repro.kernels
import repro.lint
import repro.model
import repro.policies
import repro.runtime
import repro.schedule
import repro.synthesis
import repro.utils
import repro.workloads

PACKAGES = [
    repro,
    repro.comm,
    repro.des,
    repro.engine,
    repro.eval,
    repro.experiments,
    repro.ftcpg,
    repro.kernels,
    repro.lint,
    repro.model,
    repro.policies,
    repro.runtime,
    repro.schedule,
    repro.synthesis,
    repro.utils,
    repro.workloads,
]


@pytest.mark.parametrize("package", PACKAGES,
                         ids=lambda p: p.__name__)
def test_all_exports_resolve(package):
    assert hasattr(package, "__all__")
    for name in package.__all__:
        assert hasattr(package, name), f"{package.__name__}.{name}"


@pytest.mark.parametrize("package", PACKAGES,
                         ids=lambda p: p.__name__)
def test_all_is_sorted_unique(package):
    exported = list(package.__all__)
    assert len(exported) == len(set(exported))


def test_version_matches_packaging_metadata():
    """__version__ is sourced from pyproject.toml (directly, or via
    the installed distribution metadata built from it)."""
    import tomllib
    from pathlib import Path

    pyproject = Path(repro.__file__).resolve().parents[2] \
        / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        declared = tomllib.load(handle)["project"]["version"]
    assert repro.__version__ == declared


def test_top_level_reexports_are_canonical():
    from repro.model.application import Application
    assert repro.Application is Application
    from repro.schedule.conditional import synthesize_schedule
    assert repro.synthesize_schedule is synthesize_schedule


def test_docstrings_everywhere():
    import inspect

    for package in PACKAGES:
        assert inspect.getdoc(package), package.__name__
        for name in package.__all__:
            obj = getattr(package, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert inspect.getdoc(obj), f"{package.__name__}.{name}"


def test_environment_variables_are_pinned():
    """The library reads exactly two ``REPRO_*`` variables: the
    scenario-replay escape hatch and the disk-cache deployment path.
    A new string constant naming another one fails here, so no escape
    hatch appears unnoticed."""
    import ast
    import re
    from pathlib import Path

    pattern = re.compile(r"REPRO_[A-Z_]+")
    source_root = Path(repro.__file__).resolve().parent
    names = set()
    for path in source_root.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names.update(
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and pattern.fullmatch(node.value))
    assert names == {"REPRO_KERNELS", "REPRO_EVAL_CACHE_DIR"}

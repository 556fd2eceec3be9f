"""Meta-tests: documentation and public-API consistency.

Keeps the repository honest as it grows: every module documented, every
``__all__`` name real, every subpackage inventoried in DESIGN.md, and
every bench file indexed in the docs.
"""

import importlib
import importlib.util
import os
import pkgutil

import pytest

import repro

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def iter_modules():
    for info in pkgutil.walk_packages(repro.__path__,
                                      prefix="repro."):
        yield info.name


class TestDocstrings:
    def test_every_module_has_docstring(self):
        missing = []
        for name in iter_modules():
            module = importlib.import_module(name)
            if not (module.__doc__ or "").strip():
                missing.append(name)
        assert not missing, f"modules without docstrings: {missing}"

    def test_every_all_entry_exists(self):
        broken = []
        for name in iter_modules():
            module = importlib.import_module(name)
            for entry in getattr(module, "__all__", []):
                if not hasattr(module, entry):
                    broken.append(f"{name}.{entry}")
        assert not broken, f"__all__ names that do not exist: {broken}"

    def test_public_classes_have_docstrings(self):
        undocumented = []
        for name in iter_modules():
            module = importlib.import_module(name)
            for entry in getattr(module, "__all__", []):
                obj = getattr(module, entry, None)
                if isinstance(obj, type) and not (obj.__doc__ or "").strip():
                    undocumented.append(f"{name}.{entry}")
        assert not undocumented, \
            f"public classes without docstrings: {undocumented}"


class TestDesignInventory:
    def test_subpackages_in_design_md(self):
        design = open(os.path.join(REPO_ROOT, "DESIGN.md")).read()
        src = os.path.join(REPO_ROOT, "src", "repro")
        for entry in sorted(os.listdir(src)):
            path = os.path.join(src, entry)
            if os.path.isdir(path) and not entry.startswith("__"):
                assert entry in design, \
                    f"subpackage {entry!r} missing from DESIGN.md"

    def test_benches_indexed_in_docs(self):
        """Every bench file appears in DESIGN.md's experiment index or
        EXPERIMENTS.md."""
        design = open(os.path.join(REPO_ROOT, "DESIGN.md")).read()
        experiments = open(os.path.join(REPO_ROOT, "EXPERIMENTS.md")).read()
        docs = design + experiments
        bench_dir = os.path.join(REPO_ROOT, "benchmarks")
        missing = []
        for name in sorted(os.listdir(bench_dir)):
            if name.startswith("bench_") and name.endswith(".py"):
                if name not in docs:
                    missing.append(name)
        assert not missing, f"benches not indexed in docs: {missing}"

    def test_examples_listed_in_readme(self):
        readme = open(os.path.join(REPO_ROOT, "README.md")).read()
        examples_dir = os.path.join(REPO_ROOT, "examples")
        for name in sorted(os.listdir(examples_dir)):
            if name.endswith(".py"):
                assert name in readme, \
                    f"example {name!r} not listed in README.md"


class TestGeneratedApiReference:
    def test_api_md_matches_generator(self):
        """docs/api.md is generated; a public name added, removed or
        re-documented without re-running the generator fails here."""
        spec = importlib.util.spec_from_file_location(
            "gen_api_docs", os.path.join(REPO_ROOT, "tools",
                                         "gen_api_docs.py"))
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        with open(gen.API_MD) as f:
            committed = f.read()
        assert committed == gen.render(), \
            "docs/api.md is stale: run `python tools/gen_api_docs.py`"


class TestPackaging:
    def test_version_defined(self):
        assert repro.__version__

    def test_top_level_all_importable(self):
        for entry in repro.__all__:
            importlib.import_module(f"repro.{entry}")

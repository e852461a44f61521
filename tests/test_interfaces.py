"""Serialization surfaces and cross-module invariants."""

import ast
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import ranktopo
from ranktopo import graph
from ranktopo.bounds import gv_packing
from ranktopo.estimate import design_digest, mle_ordinal
from ranktopo.graph import EigensolverError, build_topology, spectrum
from ranktopo.models import make_link, model_params, plackett_luce
from ranktopo.synth import sample_comparisons, sample_outcomes, gen_quality


class TestEstimateSerialization:
    def test_result_json_schema(self):
        design = build_topology("complete", 4)
        link = make_link("btl", 1.0)
        rng = np.random.default_rng(0)
        comps = sample_comparisons(design, 100, rng)
        batch = sample_outcomes(link, gen_quality("uniform", 4, 1.0, rng),
                                design, comps, rng)
        result = mle_ordinal(batch, design, link, 1.0)
        payload = json.loads(result.to_json(model_json=link.to_json(B=1.0),
                                            design_digest=design_digest(design)))
        assert set(payload) == {"w_hat", "converged", "iterations", "objective",
                                "grad_norm", "model", "design_digest"}
        assert len(payload["w_hat"]) == 4
        assert payload["model"] == {"family": "btl", "sigma": 1.0, "B": 1.0}
        assert len(payload["design_digest"]) == 12

    def test_digest_is_stable_and_discriminating(self):
        a = build_topology("complete", 4)
        b = build_topology("star", 4)
        assert design_digest(a) == design_digest(a)
        assert design_digest(a) != design_digest(b)

    def test_model_json_shapes(self):
        assert json.loads(make_link("thurstone", 2.0).to_json()) == {
            "family": "thurstone", "sigma": 2.0}
        assert json.loads(plackett_luce(3, B=0.5).to_json()) == {
            "family": "plackett_luce", "m": 3, "B": 0.5}


class TestEigensolverDiagnostics:
    def test_nan_input_raises(self):
        bad = np.full((3, 3), np.nan)
        with pytest.raises(EigensolverError):
            graph._dense_eigenvalues(bad)

    def test_negative_definite_input_raises(self):
        with pytest.raises(EigensolverError):
            graph._dense_eigenvalues(-np.eye(4))


class TestPackingPropagation:
    def test_seminorm_separation_interval(self):
        """The proof map sends Hamming separations to L-seminorm ones.

        On any connected design, w_j = (delta/sqrt d) U^T sqrt(Lambda+) z_j
        gives |w_j - w_k|_L^2 = (delta^2/d) |z_j - z_k|^2 exactly (the first
        packing coordinate is pinned to zero), so the packing guarantee
        alpha*d <= |z_j - z_k|^2 <= d becomes alpha*delta^2 <= sep <= delta^2.
        """
        d = 10
        design = build_topology("complete", d)
        summary = spectrum(design)
        packing = gv_packing(d, 0.01, seed=4)
        delta_sq = 0.37
        z = packing.vectors.astype(float)
        w_set = math.sqrt(delta_sq / d) * (z * np.sqrt(summary.pinv_diag)) \
            @ summary.eigenvectors
        lap = design.laplacian
        for i in range(packing.M):
            for j in range(i + 1, packing.M):
                diff = w_set[i] - w_set[j]
                sep = float(diff @ lap @ diff)
                hamming = float(np.sum(z[i] != z[j]))
                assert abs(sep - delta_sq * hamming / d) < 1e-12
                assert 0.01 * delta_sq - 1e-12 <= sep <= delta_sq + 1e-12

    def test_pipeline_packing_cap(self):
        from ranktopo.bounds import fano_pipeline

        design = build_topology("complete", 16)
        params = model_params(make_link("btl", 1.0), 1.0)
        full = fano_pipeline(design, params, 1e5, seed=5)
        capped = fano_pipeline(design, params, 1e5, seed=5, packing_cap=8)
        # a subset of a packing is still a packing: both bounds are valid,
        # though truncation moves min-separation and log M in opposite
        # directions, so no ordering between them is implied
        assert full > 0 and capped > 0
        assert capped != full
        assert capped == fano_pipeline(design, params, 1e5, seed=5, packing_cap=8)


class TestImportWeight:
    @staticmethod
    def loaded_after_import(module: str) -> bool:
        code = f"import sys, ranktopo; print({module!r} in sys.modules)"
        src = os.path.dirname(os.path.dirname(ranktopo.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), check=True, timeout=60)
        return out.stdout.strip() == "True"

    def test_import_leaves_scipy_sparse_unloaded(self):
        """scipy.sparse adds over 0.1 s to a fresh ``import ranktopo``."""
        assert not self.loaded_after_import("scipy.sparse")

    def test_import_leaves_scipy_optimize_unloaded(self):
        """scipy.optimize adds about 0.2 s to a fresh ``import ranktopo``; the
        m-wise prefactor search is numpy only."""
        assert not self.loaded_after_import("scipy.optimize")


def unused_imports(path: str) -> list[str]:
    """Names bound by a module-level import of the file at path and never
    read anywhere in it."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path}:{line}: {name}" for name, line in bound.items() if name not in used]


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level functions, classes and constants whose names start with
    a single underscore, by line."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        found.update((name, node.lineno) for name in names
                     if name.startswith("_") and not name.startswith("__"))
    return found


def read_names(tree: ast.Module) -> set[str]:
    """Names a module reads, bare or as an attribute."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


class TestImportHygiene:
    def test_no_unused_module_imports(self):
        """Every module-level import in the package and its tests is read;
        ``__init__.py`` is skipped, since its imports are re-exports."""
        roots = (os.path.dirname(ranktopo.__file__), os.path.dirname(__file__))
        paths = sorted(os.path.join(root, name) for root in roots
                       for name in os.listdir(root)
                       if name.endswith(".py") and name != "__init__.py")
        assert len(paths) > 10
        assert [bad for path in paths for bad in unused_imports(path)] == []

    def test_exports_are_the_imports(self):
        """``ranktopo.__all__`` lists exactly the names ``__init__.py``
        imports, plus ``__version__``: an export removed from one list only
        is caught here."""
        path = ranktopo.__file__
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        imported = {alias.asname or alias.name for node in tree.body
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert len(ranktopo.__all__) == len(set(ranktopo.__all__))
        assert set(ranktopo.__all__) == imported | {"__version__"}

    def test_no_unread_private_definitions(self):
        """Every private module-level name in the package is read somewhere in
        the package; one that only tests read is dead code."""
        root = os.path.dirname(ranktopo.__file__)
        trees = {}
        for name in sorted(os.listdir(root)):
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    trees[name] = ast.parse(fh.read(), filename=name)
        read = set().union(*map(read_names, trees.values()))
        defined = [(name, line, private) for name, tree in trees.items()
                   for private, line in private_definitions(tree).items()]
        assert len(defined) > 10
        assert [f"{name}:{line}: {private}" for name, line, private in defined
                if private not in read] == []

    def test_only_the_design_caches_build_laplacians(self):
        """``graph.py`` is the one package module that reads ``_laplacian``, and
        there only the design caches ``_scatter`` and ``_cliques`` call it, so
        each design builds its scatter indices once for every consumer."""
        root = os.path.dirname(ranktopo.__file__)
        readers = []
        for name in sorted(os.listdir(root)):
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), filename=name)
                if "_laplacian" in read_names(tree):
                    readers.append(name)
                if name == "graph.py":
                    callers = sorted(node.name for node in ast.walk(tree)
                                     if isinstance(node, ast.FunctionDef)
                                     and "_laplacian" in read_names(ast.Module(node.body, [])))
        assert readers == ["graph.py"]
        assert callers == ["_cliques", "_scatter"]

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
from ranktopo.bounds import fano_pipeline, gv_packing, kl_exact, kl_upper, minimax_bounds
from ranktopo.estimate import (design_digest, error_metrics, ls_paired_cardinal, mle_mwise,
                               mle_ordinal)
from ranktopo.graph import EigensolverError, build_topology, complete_hyper, spectrum
from ranktopo.models import make_link, model_params, plackett_luce
from ranktopo.synth import (CardinalModel, ObservationBatch, gen_quality, sample_comparisons,
                            sample_outcomes)


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


def _pairing_cases() -> dict:
    """Per entry point that takes a design, calls that pass it the wrong
    design kind, a design of the wrong m, or scores of the wrong length,
    each with the message it must raise.  For a pairwise entry point the m
    case is a HyperDesign of the pair's m=2, still not a comparison graph."""
    pair = build_topology("complete", 4)
    hyper3, hyper2 = complete_hyper(4, 3), complete_hyper(4, 2)
    btl, pl2, pl3 = make_link("btl", 1.0), plackett_luce(2), plackett_luce(3)
    params = model_params(btl, 1.0)
    entries = np.zeros(3, dtype=np.intp)
    ordinal = ObservationBatch("ordinal_pair", entries, np.ones(3))
    mwise = ObservationBatch("mwise", entries, np.zeros(3, dtype=np.intp))
    cardinal = ObservationBatch("cardinal_pair", entries, np.zeros(3))
    w, w1 = np.zeros(4), np.array([0.3, -0.1, 0.0, -0.2])
    pairwise = "needs a ComparisonDesign, got HyperDesign"
    m2 = r"needs a HyperDesign with m=2, got HyperDesign\(d=4, m=3\)"
    return {
        "sample_outcomes-design_kind": (
            lambda: sample_outcomes(btl, w, hyper3, entries, 0), pairwise),
        "sample_outcomes-mwise_on_pairs": (
            lambda: sample_outcomes(pl3, w, pair, entries, 0),
            "needs a HyperDesign with m=3, got ComparisonDesign"),
        "sample_outcomes-cardinal_pair_kind": (
            lambda: sample_outcomes(CardinalModel("pair", 0.0), w, hyper3, entries, 0), pairwise),
        "sample_outcomes-m": (lambda: sample_outcomes(pl2, w, hyper3, entries, 0), m2),
        "sample_outcomes-long_scores": (
            lambda: sample_outcomes(btl, np.zeros(5), pair, entries, 0),
            r"scores must have shape \(4,\), got \(5,\)"),
        "sample_outcomes-short_scores": (
            lambda: sample_outcomes(pl3, np.zeros(3), hyper3, entries, 0),
            r"scores must have shape \(4,\), got \(3,\)"),
        "mle_ordinal-design_kind": (lambda: mle_ordinal(ordinal, hyper3, btl, 1.0), pairwise),
        "mle_ordinal-m": (lambda: mle_ordinal(ordinal, hyper2, btl, 1.0), pairwise),
        "mle_mwise-design_kind": (
            lambda: mle_mwise(mwise, pair, pl3, 1.0),
            "needs a HyperDesign with m=3, got ComparisonDesign"),
        "mle_mwise-m": (lambda: mle_mwise(mwise, hyper3, pl2, 1.0), m2),
        "ls_paired_cardinal-design_kind": (lambda: ls_paired_cardinal(cardinal, hyper3), pairwise),
        "ls_paired_cardinal-m": (lambda: ls_paired_cardinal(cardinal, hyper2), pairwise),
        "error_metrics-design_kind": (lambda: error_metrics(w1, w, hyper3), pairwise),
        "error_metrics-m": (lambda: error_metrics(w1, w, hyper2), pairwise),
        "error_metrics-scores": (
            lambda: error_metrics(np.zeros(3), w, pair), r"shape \(4,\), got \(3,\)"),
        "kl_exact-design_kind": (lambda: kl_exact(w1, w, hyper3, btl, 10), pairwise),
        "kl_exact-mwise_on_pairs": (
            lambda: kl_exact(w1, w, pair, pl3, 10),
            "needs a HyperDesign with m=3, got ComparisonDesign"),
        "kl_exact-m": (lambda: kl_exact(w1, w, hyper3, pl2, 10), m2),
        "kl_exact-scores": (
            lambda: kl_exact(w1, np.zeros(5), pair, btl, 10), r"shape \(4,\), got \(5,\)"),
        "kl_upper-design_kind": (lambda: kl_upper(w1, w, hyper3, params, 10), pairwise),
        "kl_upper-m": (lambda: kl_upper(w1, w, hyper2, params, 10), pairwise),
        "kl_upper-scores": (
            lambda: kl_upper(w1, np.zeros(3), pair, params, 10), r"shape \(4,\), got \(3,\)"),
        "minimax_bounds-design_kind": (
            lambda: minimax_bounds("T4_mwise_lap", pair, pl3, 100),
            "needs a HyperDesign with m=3, got ComparisonDesign"),
        "minimax_bounds-m": (
            lambda: minimax_bounds("T4_mwise_lap", complete_hyper(6, 3), pl2, 100),
            r"needs a HyperDesign with m=2, got HyperDesign\(d=6, m=3\)"),
        "minimax_bounds-params": (
            lambda: minimax_bounds("T1_lap", pair, pl2, 100), "T1_lap needs ModelParams"),
        "fano_pipeline-design_kind": (
            lambda: fano_pipeline(complete_hyper(12, 3), params, 1e6),
            r"needs a ComparisonDesign, got HyperDesign\(d=12, m=3\)"),
        "fano_pipeline-m": (lambda: fano_pipeline(hyper2, params, 1e6), pairwise),
    }


class TestModelDesignPairing:
    CASES = _pairing_cases()

    @pytest.mark.parametrize("case", list(CASES))
    def test_mismatch_is_refused(self, case):
        """An m-wise link reads a HyperDesign of its own m, every other model
        a ComparisonDesign, and scores hold one entry per item; every entry
        point that takes a design refuses anything else with a ValueError
        that names what it needed and what it got."""
        call, message = self.CASES[case]
        with pytest.raises(ValueError, match=message):
            call()

    def test_cases_cover_every_entry_point(self):
        covered = {case.split("-")[0] for case in self.CASES}
        assert covered == {"sample_outcomes", "mle_ordinal", "mle_mwise", "ls_paired_cardinal",
                           "error_metrics", "kl_exact", "kl_upper", "minimax_bounds",
                           "fano_pipeline"}


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

    def test_only_the_estimators_read_the_likelihood(self):
        """Outside ``models.py``, ``estimate.py`` is the one package module that
        reads the link's log-likelihood pieces, so the MLEs and ``kl_exact``
        evaluate the one likelihood of the estimators' closures."""
        pieces = {"log_cdf", "pdf_over_cdf", "neg_log_second_pair", "log_position_probs"}
        root = os.path.dirname(ranktopo.__file__)
        readers = []
        for name in sorted(os.listdir(root)):
            if name.endswith(".py") and name != "models.py":
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    if pieces & read_names(ast.parse(fh.read(), filename=name)):
                        readers.append(name)
        assert readers == ["estimate.py"]

    def test_only_the_design_modules_tell_designs_apart(self):
        """Outside ``graph.py`` and ``synth.py`` no package module passes
        ``ComparisonDesign`` or ``HyperDesign`` to ``isinstance``: which design
        a model reads is decided in one place, ``synth._check_model``."""
        designs = {"ComparisonDesign", "HyperDesign"}
        root = os.path.dirname(ranktopo.__file__)
        found = []
        for name in sorted(os.listdir(root)):
            if name.endswith(".py") and name not in ("graph.py", "synth.py"):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), filename=name)
                found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                          if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                          and node.func.id == "isinstance" and len(node.args) == 2
                          and designs & read_names(node.args[1])]
        assert found == []

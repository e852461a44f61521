"""Serialization surfaces and cross-module invariants."""

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
from ranktopo.synth import ObservationBatch, sample_comparisons, sample_outcomes, gen_quality


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
    def test_import_leaves_scipy_sparse_unloaded(self):
        """scipy.sparse adds over 0.1 s to a fresh ``import ranktopo``."""
        code = "import sys, ranktopo; print('scipy.sparse' in sys.modules)"
        src = os.path.dirname(os.path.dirname(ranktopo.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), check=True, timeout=60)
        assert out.stdout.strip() == "False"

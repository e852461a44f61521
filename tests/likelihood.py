"""A batch's likelihood as the estimators see it, for tests.

The MLEs tally a batch with ``estimate._counts`` and hand the counts to
their closures; ``batch_likelihood`` does the same, so a test checks the
objective, gradient and Hessian that the solver reads.
"""

import numpy as np

from ranktopo.estimate import _counts, _mwise_closures, _ordinal_closures


def batch_likelihood(batch, design, link):
    """(nll, gradient, hessian), each a function of w: the negative
    log-likelihood averaged over the batch's samples and its derivatives."""
    if batch.kind == "mwise":
        counts = _counts(batch, design.subsets.shape[0], batch.outcomes, link.m)
        point, *closures = _mwise_closures(design, link, counts, batch.n)
    else:
        losing = (np.asarray(batch.outcomes) != 1).astype(np.intp)
        wins, losses = _counts(batch, design.edge_arrays[0].size, losing, 2)
        point, *closures = _ordinal_closures(design, link, wins, losses, batch.n)
    return tuple(lambda w, f=f: f(point(np.asarray(w, dtype=float))) for f in closures)

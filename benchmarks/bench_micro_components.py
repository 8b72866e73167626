"""Micro-benchmarks of the computational components (paper §7.3).

The paper's complexity discussion: PCA costs O(d^2 W) + O(d^3), k-NN
testing is O(N) per query with the exact scan (the KD-tree of refs
[12][13] pays off only far beyond the paper's memory sizes; DESIGN.md
records the crossover), and the LARPredictor amortizes classification
overhead by running a single pool member per step. These benches pin the
throughput of each stage so regressions in the vectorized kernels are
caught.
"""

import numpy as np
import pytest

from repro.learn.knn import KNNClassifier
from repro.learn.pca import PCA
from repro.predictors.ar import ARPredictor, yule_walker
from repro.predictors.pool import PredictorPool
from repro.preprocess.pipeline import PreprocessPipeline
from repro.traces.synthetic import ar1_series

RNG = np.random.default_rng(0)
FRAMES = RNG.standard_normal((5000, 16))
SERIES = ar1_series(20000, phi=0.9, seed=1)
TRAIN_FEATURES = RNG.standard_normal((5000, 2))
TRAIN_LABELS = RNG.integers(1, 4, 5000)
QUERIES = RNG.standard_normal((1000, 2))


def test_pca_fit(benchmark):
    benchmark(lambda: PCA(2).fit(FRAMES))


def test_pca_transform(benchmark):
    pca = PCA(2).fit(FRAMES)
    benchmark(lambda: pca.transform(FRAMES))


def test_yule_walker_order16(benchmark):
    benchmark(lambda: yule_walker(SERIES, 16))


def test_ar_batch_prediction(benchmark):
    ar = ARPredictor(order=16).fit(SERIES)
    benchmark(lambda: ar.predict_batch(FRAMES))


def test_pool_parallel_training_pass(benchmark):
    """The §6.1 mix-of-expert labelling: every member on every frame."""
    pool = PredictorPool.paper_pool(ar_order=16).fit(SERIES)
    targets = RNG.standard_normal(FRAMES.shape[0])
    benchmark(lambda: pool.best_labels(FRAMES, targets, smooth_window=10))


@pytest.mark.parametrize("width", [2, 16])
def test_knn_brute_queries(benchmark, width):
    """At the paper's n = 2 PCA features and at 16 (window 16 with PCA
    off): the exact distance kernel makes one pass per coordinate."""
    rng = np.random.default_rng(width)
    train = np.hstack([TRAIN_FEATURES, rng.standard_normal((5000, width - 2))])
    queries = np.hstack([QUERIES, rng.standard_normal((1000, width - 2))])
    clf = KNNClassifier(k=3).fit(train, TRAIN_LABELS)
    benchmark(lambda: clf.predict(queries))


def test_preprocess_pipeline(benchmark):
    pipe = PreprocessPipeline(window=16, n_components=2).fit(SERIES[:10000])
    benchmark(lambda: pipe.prepare(SERIES[10000:]))


@pytest.mark.parametrize("n_points", [500, 5000])
def test_knn_scaling(benchmark, n_points):
    """O(N) brute-force scaling of the testing phase (§7.3)."""
    clf = KNNClassifier(k=3).fit(
        TRAIN_FEATURES[:n_points], TRAIN_LABELS[:n_points]
    )
    benchmark(lambda: clf.predict(QUERIES[:200]))

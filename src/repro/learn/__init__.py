"""Learning components: PCA and the classifiers that forecast the best predictor.

The paper uses PCA for dimensionality reduction (§5.2) and a k-NN
classifier for best-predictor forecasting (§5.1), noting that "our
methodology may be generally used with other types of classification
algorithms" — the alternative classifiers here back that generality
claim and the classifier-choice ablation.
"""

from repro.learn.pca import PCA
from repro.learn.base import Classifier
from repro.learn.distance import euclidean_distances, squared_euclidean_distances
from repro.learn.knn import KNNClassifier
from repro.learn.naive_bayes import GaussianNBClassifier
from repro.learn.centroid import NearestCentroidClassifier
from repro.learn.tree import DecisionTreeClassifier
from repro.learn.logistic import SoftmaxClassifier
from repro.learn.voting import majority_vote, weighted_vote, VotingEnsemble

__all__ = [
    "PCA",
    "Classifier",
    "euclidean_distances",
    "squared_euclidean_distances",
    "KNNClassifier",
    "GaussianNBClassifier",
    "NearestCentroidClassifier",
    "DecisionTreeClassifier",
    "SoftmaxClassifier",
    "majority_vote",
    "weighted_vote",
    "VotingEnsemble",
]

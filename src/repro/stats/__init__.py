"""Summary statistics as features (paper section 3.2).

Turns the columnar sketch index into the feature vectors PS3's picker
consumes: pre-computed per-column statistics (measures, distinct values,
heavy hitters, occurrence bitmaps) combined at query time with
query-specific selectivity estimates, under a query-dependent column mask.

Selectivity features come from the vectorized :class:`PredicatePlan`,
which compiles a predicate once and evaluates it across all partitions
against the index. The scalar per-partition estimator and occurrence
bitmaps over sketch objects are the tests' oracle and live with them.
"""

from repro.stats.features import FeatureBuilder, FeatureSchema, QueryFeatures
from repro.stats.normalization import Normalizer
from repro.stats.plan import PredicatePlan

__all__ = [
    "FeatureBuilder",
    "FeatureSchema",
    "Normalizer",
    "PredicatePlan",
    "QueryFeatures",
]

"""Lightweight, single-pass, mergeable partition sketches.

The four sketch families from paper section 3.1, plus the exact value
dictionary for low-cardinality string columns (section 3.2):

* :class:`~repro.sketches.measures.MeasuresSketch` — min/max/moments, with
  log-transformed variants for strictly positive columns;
* :class:`~repro.sketches.histogram.EquiDepthHistogram` — 10-bucket
  equal-depth histograms (over hashes for string columns);
* :class:`~repro.sketches.akmv.AKMVSketch` — K-Minimum-Values distinct-value
  sketch with per-value counts (k=128);
* :class:`~repro.sketches.heavy_hitter.HeavyHitterSketch` — lossy counting
  at 1% support;
* :class:`~repro.sketches.exact_dict.ExactDictionary` — exact value/count
  dictionary for low-cardinality strings, enabling substring filters.

The seal (:mod:`repro.sketches.builder`) computes every family for all
segments of a column at once and writes the results straight into the
one statistics form, the
:class:`~repro.sketches.columnar.ColumnarSketchIndex` arrays, with each
partition's Table 4 byte count per family (the size of each sketch's
encoding). Only the heavy-hitter sketch lives on as an object: one
running global sketch per column, into which every sealed partition's
automaton is merged. The classes' scalar constructors and encodings are
what the tests' oracle builds partition by partition.
"""

from repro.sketches.akmv import AKMVSketch
from repro.sketches.builder import (
    DatasetStatistics,
    SketchConfig,
    build_dataset_statistics,
)
from repro.sketches.columnar import ColumnarSketchIndex
from repro.sketches.exact_dict import ExactDictionary
from repro.sketches.heavy_hitter import HeavyHitterSketch
from repro.sketches.histogram import EquiDepthHistogram
from repro.sketches.measures import MeasuresSketch

__all__ = [
    "AKMVSketch",
    "ColumnarSketchIndex",
    "DatasetStatistics",
    "EquiDepthHistogram",
    "ExactDictionary",
    "HeavyHitterSketch",
    "MeasuresSketch",
    "SketchConfig",
    "build_dataset_statistics",
]

"""The paper's primary contribution: weighted partition selection.

Components map one-to-one onto paper section 4:

* :mod:`~repro.core.contribution` — partition contribution (section 4.3);
* :mod:`~repro.core.labels` — training-label generation (Algorithm 4);
* :mod:`~repro.core.training` — the k-regressor funnel trainer;
* :mod:`~repro.core.importance` — importance grouping (Algorithm 2);
* :mod:`~repro.core.allocation` — budget split with decay rate alpha;
* :mod:`~repro.core.outliers` — rare-bitmap outlier partitions (4.4);
* :mod:`~repro.core.cluster_sampler` — sample via clustering (4.2);
* :mod:`~repro.core.feature_selection` — Algorithm 3;
* :mod:`~repro.core.picker` — the full picker (Algorithm 1);
* :mod:`~repro.core.metrics` — the three error metrics (5.1.4);
* :mod:`~repro.core.variance` — estimator variance analysis (Appendix D).
"""

from repro.core.cluster_sampler import cluster_sample
from repro.core.metrics import ErrorReport, evaluate_errors
from repro.core.picker import PickerConfig, PS3Picker
from repro.core.training import PickerModel, train_picker_model

__all__ = [
    "ErrorReport",
    "PS3Picker",
    "PickerConfig",
    "PickerModel",
    "cluster_sample",
    "evaluate_errors",
    "train_picker_model",
]

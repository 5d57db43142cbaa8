"""Quantum-kernel SVM laboratory.

Pauli feature-map circuits, exact and shot-sampled fidelity kernels, a
precomputed-kernel SVM trained by SMO, a financial direction-labeling
data pipeline, reproducible experiment sweeps with ruggedness (PTRI)
scoring, and closed-form circuit resource estimation.
"""
from .circuits import Circuit, Gate, GateKind, dag_depth
from .feature_maps import PRESETS, FeatureMapSpec, build_feature_map
from .simulator import Statevector, sample_zero_count, simulate
from .kernels import (GramMatrix, KernelConfig, gram_matrix, gram_pair, psd_clip,
                      quantum_config, rbf_config)
from .svm import SvmModel, decision_values, predict, train
from .metrics import ConfusionMatrix, balanced_accuracy, confusion, f1
from .data import (Dataset, RawSeries, ingest, label_direction, sample_subset, scale_split,
                   synthetic_dataset, quantum_separable_dataset)
from .experiment import (ConfigPoint, SweepResult, eqa_difference, ptri, run_sweep,
                         select_reference_trials, sweep_from_doc, variability_study)
from .resources import ResourceEstimate, estimate

__version__ = "0.6.0"

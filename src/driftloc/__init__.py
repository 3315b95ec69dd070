"""Drift-robust WiFi RSSI fingerprint localization.

A Siamese convolutional encoder trained with floorplan-aware triplet
sampling and AP-dropout augmentation embeds fingerprints onto the unit
sphere; an exact KNN over those embeddings answers location queries and
stays usable as access points drift or disappear.  A synthetic drift
simulator and an evaluation harness make the longitudinal protocol
runnable end to end.
"""

from .augment import apply_ap_dropout, draw_turnoff_fraction
from .data import (AccessPointId, Fingerprint, FingerprintDataset, FloorPlan,
                   ReferencePoint, load_dataset, save_dataset, split_by_ci)
from .encoder import (EncoderConfig, EncoderModel, encode_batch, gradient_check,
                      init_model, train_step, triplet_loss)
from .errors import (DatasetFormatError, DriftlocError, HingeInactiveError,
                     ModelFormatError, NonFiniteLossError, StochasticModelError)
from .evaluate import (EvalReport, evaluate_baseline_over_time,
                       evaluate_over_time, fpr_sweep)
from .localizer import (EmbeddingIndex, Prediction, TrainConfig, predict,
                        predict_batch, train)
from .model_io import load_model, save_model
from .preprocess import to_image
from .sampler import (build_pmf_table, default_sigma_sel, make_batch,
                      rp_members, sample_triplet)
from .simulate import GroundTruth, SimConfig, generate, preset, write_scenario

__version__ = "0.1.0"

__all__ = [
    "AccessPointId", "DatasetFormatError", "DriftlocError", "EmbeddingIndex",
    "EncoderConfig", "EncoderModel", "EvalReport", "Fingerprint",
    "FingerprintDataset", "FloorPlan", "GroundTruth", "HingeInactiveError",
    "ModelFormatError", "NonFiniteLossError", "Prediction", "ReferencePoint",
    "SimConfig", "StochasticModelError", "TrainConfig",
    "apply_ap_dropout", "build_pmf_table", "default_sigma_sel",
    "draw_turnoff_fraction", "encode_batch", "evaluate_baseline_over_time",
    "evaluate_over_time", "fpr_sweep", "generate", "gradient_check",
    "init_model", "load_dataset", "load_model", "make_batch",
    "predict", "predict_batch", "preset",
    "rp_members", "sample_triplet", "save_dataset", "save_model",
    "split_by_ci", "to_image", "train", "train_step", "triplet_loss",
    "write_scenario",
]

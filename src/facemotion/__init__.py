"""Desk-scale 3D facial motion codec and evaluation toolkit.

The package covers the full pipeline around a 58-dimensional facial motion
space: a linear blendshape forward model with rigid jaw articulation
(motion_core), a temporal window codec with hierarchical residual vector
quantization (rvq), the composite reconstruction objective (losses), a
lip-sync and expressiveness metric suite (metrics), a segment-wise
autoregressive streaming simulator with latency accounting (streamsim),
deterministic synthetic data (synth), and binary/text file formats (fileio).
"""

__version__ = "0.1.0"

from .errors import (
    FaceMotionError,
    FormatError,
    IncompatibleShapeError,
    ModelConfigError,
    StreamProtocolError,
)
from .motion_core import CHANNEL_NAMES, FRAME_DIM, BlendshapeModel, MotionSequence, forward_batch
from .rvq import (
    Codebook,
    LatentSequence,
    QuantizerConfig,
    TokenSequence,
    WindowProjection,
    commitment_loss,
    fit_projections,
    rvq_decode,
    rvq_encode,
    train_codebooks,
    window_decode,
    window_encode,
)
from .losses import LossReport, LossWeights, total_losses
from .metrics import MetricsConfig, MetricsReport, full_report, liveliness, peak_align, velocity_corr
from .streamsim import (
    AudioFeatureSequence,
    LatencyReport,
    PredictorSpec,
    SegmentState,
    StreamEventLog,
    downsample_features,
    hierarchical_ce,
    latency_report,
    run_stream,
    step,
)
from .synth import SynthConfig, make_model, make_motion

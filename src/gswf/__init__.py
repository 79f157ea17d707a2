"""Glottal-synchronous waveform analysis, resynthesis and evaluation.

The package root exports the library entry points, the types they take and
return, and the error classes; everything else is imported from its module.
"""

from .analysis import FeatureStream, SegmentFeatures, analyze
from .config import PipelineConfig
from .errors import (ConfigError, DetectionError, FormatError, GswfError,
                     ValidationError)
from .featfile import read_features, write_features
from .metrics import MetricsReport, evaluate
from .signal_io import F0Contour, Waveform, read_f0_ref, read_wav, write_wav
from .synthesis import synthesize, synthesize_min_phase

__version__ = "0.1.0"

"""Glottal-synchronous waveform analysis, resynthesis and evaluation."""

from .analysis import (FeatureStream, Segment, SegmentFeatures, analyze,
                       encode_phase, extract_segments, segments_to_features)
from .config import PipelineConfig, load_config
from .dsp import (LpcModel, LspVector, asymmetric_hann, inverse_spectrum,
                  lpc_envelope, lpc_residual, lpc_to_lsp, lsp_to_lpc,
                  mel_cepstrum, mel_filterbank, wrap_phase)
from .errors import (ConfigError, DetectionError, FormatError, GswfError,
                     ValidationError)
from .featfile import read_features, write_features
from .gci import (CandidateInterval, GciCandidateSet, GciTrack,
                  candidate_f0_grid, detect_gci, find_intervals,
                  mean_based_signal, read_gci_track, select_candidates,
                  viterbi_select, write_gci_track)
from .metrics import (MetricsReport, align_gci, dpd, evaluate, lsd, mcd,
                      rmse_waveform, voicing_mask)
from .signal_io import (F0Contour, Waveform, read_f0_ref, read_wav,
                        write_f0_ref, write_wav)
from .synthesis import (decode_phase, overlap_add, synthesize, synthesize_min_phase,
                        window_envelope)

__version__ = "0.1.0"

"""Degradation-robust music fingerprinting and recognition.

The pipeline turns audio into compact binary codes and retrieves short,
possibly heavily degraded excerpts from a reference catalog:

  audio -> spectrogram -> anchor times -> high-dimensional prints
        -> learned affine reduction (5 stages) -> 40-bit codes
        -> 51 LSH sub-codes -> hash table -> two-step search
           (match counting, then time-coherence with stretch estimation)
"""

from printdex.audio import AudioBuffer, Spectrogram, SpectrogramConfig, load_audio, normalize, resample, stft
from printdex.onsets import AnalysisTimes, OnsetConfig, select_analysis_times
from printdex.prints import PrintConfig
from printdex.reduction import ReductionModel, load_model, save_model, train_reduction
from printdex.hashing import CatalogIndex, LshSpec, load_index
from printdex.search import SearchConfig, SearchResult, query_index

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer",
    "Spectrogram",
    "SpectrogramConfig",
    "load_audio",
    "normalize",
    "resample",
    "stft",
    "AnalysisTimes",
    "OnsetConfig",
    "select_analysis_times",
    "PrintConfig",
    "ReductionModel",
    "train_reduction",
    "save_model",
    "load_model",
    "LshSpec",
    "CatalogIndex",
    "load_index",
    "SearchConfig",
    "SearchResult",
    "query_index",
]

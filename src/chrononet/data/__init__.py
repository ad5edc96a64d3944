from .container import (Dataset, ManifestEntry, export_dataset, import_dataset,
                        read_manifest, save_stats)
from .edf import EdfRecording, EdfSignal, read_edf, recording_from_arrays, write_edf
from .montage import (MontageDef, MontagePair, Recording, apply_montage,
                      default_montage, load_montage, parse_montage)
from .preprocess import (compute_stats, extract_windows, normalize, resample,
                         resample_recording)
from .synthetic import SelfCheck, SyntheticSpec, generate_synthetic, self_check

__all__ = [
    "Dataset", "ManifestEntry", "export_dataset", "import_dataset",
    "read_manifest", "save_stats", "EdfRecording", "EdfSignal", "read_edf",
    "recording_from_arrays", "write_edf", "MontageDef", "MontagePair", "Recording",
    "apply_montage", "default_montage", "load_montage", "parse_montage",
    "compute_stats", "extract_windows", "normalize", "resample",
    "resample_recording", "SelfCheck", "SyntheticSpec", "generate_synthetic",
    "self_check",
]

"""Data path: EDF reading, montage, resampling and windowing, the ``.cnds``
container, and synthetic data.  Import the submodules; this package file only
anchors ``tcp_montage.txt`` for ``montage.default_montage``."""

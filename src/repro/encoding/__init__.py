"""Low-level encoding substrate shared by the compressors.

Everything here is implemented with vectorized NumPy (no per-sample Python
loops) so the pure-Python codecs remain usable at paper scale (~1.5M points
per 3-D variable):

- :mod:`repro.encoding.bitio` — fixed-width and unary bit packing.
- :mod:`repro.encoding.rice` — a split-stream Golomb-Rice entropy codec.
- :mod:`repro.encoding.zigzag` — signed/unsigned integer mapping.
- :mod:`repro.encoding.deflate` — HDF5-style shuffle filter + DEFLATE.
- :mod:`repro.encoding.residuals` — the Rice-or-DEFLATE residual back-end
  shared by fpzip, GRIB2 and SZ.
- :mod:`repro.encoding.container` — tiny length-prefixed section container
  used by codecs to serialize multi-stream payloads.
"""

from repro.encoding.bitio import (
    pack_fixed,
    unpack_fixed,
    pack_unary,
    unpack_unary,
)
from repro.encoding.rice import rice_encode, rice_decode, choose_rice_k
from repro.encoding.zigzag import zigzag_encode, zigzag_decode
from repro.encoding.deflate import (
    deflate,
    inflate,
    shuffle_bytes,
    unshuffle_bytes,
)
from repro.encoding.container import SectionWriter, SectionReader

__all__ = [
    "pack_fixed",
    "unpack_fixed",
    "pack_unary",
    "unpack_unary",
    "rice_encode",
    "rice_decode",
    "choose_rice_k",
    "zigzag_encode",
    "zigzag_decode",
    "deflate",
    "inflate",
    "shuffle_bytes",
    "unshuffle_bytes",
    "SectionWriter",
    "SectionReader",
]

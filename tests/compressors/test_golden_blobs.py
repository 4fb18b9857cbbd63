"""Golden codec blobs: the exact bytes of ``compress()`` are pinned.

The residual-coding codecs (fpzip, GRIB2, SZ) share one entropy back-end;
any change to it, or to a codec's framing, that moves a single byte of
any blob fails here.  Each variant's digest is the SHA-256 over the
length-prefixed blobs of a seeded field matrix: float32 and float64,
1-D, 2-D and 3-D, CESM fill values, integer-valued data and a wide
dynamic range.  The digests were generated from the codecs as they
stood before the back-end was shared; regenerate them only for a change
that is meant to alter the wire format, and say so.
"""

import hashlib
import struct

import numpy as np
import pytest

from repro.compressors import get_variant
from repro.config import FILL_VALUE

GOLDEN = {
    "fpzip-8":
        "a227a46eb1180036de650eb351f72d05797ea4929ad950fc01bf389957dc446b",
    "fpzip-16":
        "26a47d011b610b64ff8dd3d7e730500c889f084eabdabdb4d1a491c3da2316c9",
    "fpzip-24":
        "5f478575c99bcd0d5572373d3c06088c9c11ae683b3ad7d866c8c84250d51cd6",
    "fpzip-32":
        "54ec7408e555629e8c2f42091012fa97b1b551edaca7392c9b0372878f9f1ee8",
    "fpzip-32-lorenzo":
        "14bb7138bee9fd68b0dde69bb91f930f320ef6e1317d91cf1752f8b21b7a4674",
    "GRIB2":
        "058050a1082ed558ffd2ef19b3be256f955983112b738253a66e6762bed8b899",
    "SZ-rel-0.001":
        "59025a9e97e9ad608854e20a692ac740e23165bc3fe0942bec1e1f063c16c5b3",
    "SZ-abs-0.001":
        "8300c2fbcf11ff428c51c09aa7ec05b2c260a2742de498eb3392851708fd32bd",
    "SZ-pw-0.001":
        "7d3dd4fe6f4ecaf2e65fd67f0a63d163db1693a7fbb05239cc98af9a959f5c61",
    "SZ-rel-0.001-delta":
        "7dae36bacf368163b15223b47476f8a365b1113d44955a4406eaf8e88de7f7f1",
    # Every field here is shorter than ISABELA's 1024-point window, so
    # these pin its tail path: sort order, spline and corrections.
    "ISA-0.1":
        "47d7be16422ee20186fbb5fb59a0162b877d8c04446f17a76572fdb420131736",
    "ISA-0.5":
        "5da6f2a48bb4b9e797b7810623bed254c33142bc2dc3b3a2b39933906de720db",
    "ISA-1.0":
        "7e37d7b1a217a14c08c27a967dafd7c70ebf006c7ea242eec30bdc89d9f3d223",
}


def _smooth(rng, shape):
    """Smooth waves plus a little noise, like a CAM level slice."""
    n = int(np.prod(shape))
    t = np.linspace(0.0, 8.0 * np.pi, n)
    return (240.0 + 30.0 * np.sin(t) + 5.0 * np.cos(3.1 * t)
            + rng.normal(0.0, 0.5, n)).reshape(shape)


def _fields():
    """The seeded field matrix, as float64 ``{name: array}``."""
    rng = np.random.default_rng(20140623)
    fields = {
        "smooth-1d": _smooth(rng, (600,)),
        "smooth-2d": _smooth(rng, (12, 48)),
        "smooth-3d": _smooth(rng, (4, 6, 40)),
    }
    filled = _smooth(rng, (10, 40))
    filled[rng.random(filled.shape) < 0.15] = FILL_VALUE
    filled[:2, :5] = FILL_VALUE
    fields["fill-2d"] = filled
    fields["integer-2d"] = np.rint(rng.normal(0.0, 40.0, (8, 50)))
    signs = np.where(rng.random((6, 50)) < 0.3, -1.0, 1.0)
    fields["wide-range-2d"] = signs * 10.0 ** rng.uniform(-12.0, 12.0,
                                                          (6, 50))
    return fields


FIELDS = _fields()


def _cases(codec):
    """Every (label, array) the codec must encode: float64 only where
    the codec supports 64-bit data."""
    dtypes = [np.float32]
    if codec.properties().bits_32_and_64:
        dtypes.append(np.float64)
    for dtype in dtypes:
        for name, field in FIELDS.items():
            yield f"{name}-{np.dtype(dtype).name}", field.astype(dtype)


def _digest(codec) -> str:
    h = hashlib.sha256()
    for label, data in _cases(codec):
        blob = codec.compress(data)
        h.update(label.encode())
        h.update(struct.pack("<Q", len(blob)))
        h.update(blob)
    return h.hexdigest()


@pytest.mark.parametrize("variant", sorted(GOLDEN))
def test_blobs_are_byte_identical(variant):
    assert _digest(get_variant(variant)) == GOLDEN[variant]


@pytest.mark.parametrize("variant", sorted(GOLDEN))
def test_blobs_round_trip(variant):
    codec = get_variant(variant)
    for label, data in _cases(codec):
        blob = codec.compress(data)
        out = codec.decompress(blob)
        assert out.shape == data.shape and out.dtype == data.dtype, label
        # Decoding is deterministic, and lossless variants are exact.
        np.testing.assert_array_equal(codec.decompress(blob), out)
        if codec.is_lossless and data.dtype == np.float32:
            np.testing.assert_array_equal(out, data)

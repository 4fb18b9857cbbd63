"""Golden codec blobs: the exact bytes of ``compress()`` are pinned.

The residual-coding codecs (fpzip, GRIB2, SZ) share one entropy back-end;
any change to it, or to a codec's framing, that moves a single byte of
any blob fails here.  Each variant's digest is the SHA-256 over the
length-prefixed blobs of a seeded field matrix: float32 and float64,
1-D, 2-D and 3-D, CESM fill values, integer-valued data and a wide
dynamic range.  The digests were generated from the codecs as they
stood before the back-end was shared; regenerate them only for a change
that is meant to alter the wire format, and say so.

``LONG_GOLDEN`` pins the codecs whose lossy stage works per window or
per block over fields several 1024-point ISABELA windows long, whose
32-point APAX blocks are partly raw and partly DPCM-coded.  The APAX and
BitRound digests, and all of ``LONG_GOLDEN``, were taken from the codecs
as they stood before their lossy stages were vectorized.
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
    "APAX-2":
        "4b424e685252935bd4f0b791b78619b2eb196a6e279fc2617f3fe31efe113ccb",
    "APAX-4":
        "cc7aa36c26eaa0a0750feffdb26ce4f134ac31aac884fd1d828bb20657e5761b",
    "APAX-5":
        "895d6affa6284741e7bbb707a14a1b85676067cdef7408b0ba2c8f80c4f2dbe6",
    "BR-8":
        "30eb2e76737856c8d42f54790725ced52339490eb9f293f8129effd3faef43a1",
    "BR-auto":
        "0040a3f29507a3e13a006f66d8c18a82c981a9d86da60f3e9d2ec85677cd4f08",
}

LONG_GOLDEN = {
    "ISA-0.1":
        "0676cd03d0481167a596322641b1f5e1725b9f713e0d46804fb376086d8ae10b",
    "ISA-0.5":
        "26d58ab7fe92f6e4cf58b2e27b91d2064fbca99131a4b0036055e55ade68cb1d",
    "ISA-1.0":
        "f2e8310bfab1aba20de2c9c1b3b839301c9e39bab92ac55aa76503eaeae60002",
    "APAX-2":
        "c1cb604cc0f83b55dc9f3b1a72a8ce1ae807d8f4a1f7d8cbc8b957a35c7bd62c",
    "APAX-4":
        "c29ba04784fd610b4b07a5350ffca09dcb260726d3ae949f740747fdb83a8a9f",
    "APAX-5":
        "b6a992f7f4a182235e490d2826d2a8d43c5200e2ab1aa5079eb9b3439654bed5",
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


def _long_fields():
    """Fields of several full ISABELA windows plus a tail, as float64
    ``{name: array}``: smooth stretches (DPCM blocks for APAX) alternate
    with noisy ones (raw blocks), and a wide dynamic range gives
    ISABELA escapes inside full windows."""
    rng = np.random.default_rng(20141023)
    mixed = _smooth(rng, (4 * 1024 + 200,))
    for start in range(0, mixed.size, 640):
        mixed[start:start + 320] += rng.normal(0.0, 25.0, 320)[
            :mixed.size - start]
    return {
        "mixed-long-1d": mixed,
        "smooth-long-2d": _smooth(rng, (3, 1100)),
        "wide-range-long-1d": 10.0 ** rng.uniform(-12.0, 12.0, 2 * 1024 + 90),
    }


FIELDS = _fields()
LONG_FIELDS = _long_fields()


def _cases(codec, fields=FIELDS):
    """Every (label, array) the codec must encode: float64 only where
    the codec supports 64-bit data."""
    dtypes = [np.float32]
    if codec.properties().bits_32_and_64:
        dtypes.append(np.float64)
    for dtype in dtypes:
        for name, field in fields.items():
            yield f"{name}-{np.dtype(dtype).name}", field.astype(dtype)


def _digest(codec, fields=FIELDS) -> str:
    h = hashlib.sha256()
    for label, data in _cases(codec, fields):
        blob = codec.compress(data)
        h.update(label.encode())
        h.update(struct.pack("<Q", len(blob)))
        h.update(blob)
    return h.hexdigest()


@pytest.mark.parametrize("variant", sorted(GOLDEN))
def test_blobs_are_byte_identical(variant):
    assert _digest(get_variant(variant)) == GOLDEN[variant]


@pytest.mark.parametrize("variant", sorted(LONG_GOLDEN))
def test_long_field_blobs_are_byte_identical(variant):
    assert _digest(get_variant(variant), LONG_FIELDS) == LONG_GOLDEN[variant]


def test_long_fields_cover_full_windows_and_both_apax_modes():
    for name in ("mixed-long-1d", "smooth-long-2d"):
        field = LONG_FIELDS[name]
        assert field.size >= 3 * 1024 and field.size % 1024
        for dtype in (np.float32, np.float64):
            modes = get_variant("APAX-4")._quantize_blocks(
                field.astype(dtype).ravel()).delta_mode
            assert modes.any() and not modes.all()
    wide = LONG_FIELDS["wide-range-long-1d"].astype(np.float32)
    fit, _ = get_variant("ISA-1.0")._fit(wide)
    assert fit.esc_idx is not None and (fit.esc_idx < 2 * 1024).any()


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

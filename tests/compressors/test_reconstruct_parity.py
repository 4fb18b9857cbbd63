"""``Compressor.reconstruct`` is ``decompress(compress(x))``, byte for byte.

Parametrized over ``variant_names()`` plus the special-value adapter
around fpzip and APAX, so a codec added to the registry is held to the
parity automatically.  Inputs: the contract harness's degenerate cases
and every catalog variable on the test grid, in float32 and, where the
codec supports it, float64.  Where ``compress`` raises, ``reconstruct``
must raise the same exception type.
"""

import numpy as np
import pytest

from repro.compressors import get_variant, variant_names
from repro.compressors.base import SpecialValueAdapter
from repro.config import FILL_VALUE, ReproConfig
from repro.model.ensemble import CAMEnsemble
from tests.compressors.test_codec_contract import _smooth

CODECS = sorted(variant_names()) + ["fpzip-16+sv", "APAX-4+sv"]


def _codec(label):
    if label.endswith("+sv"):
        return SpecialValueAdapter(get_variant(label[:-3]))
    return get_variant(label)


def _contract_cases(dtype) -> dict[str, np.ndarray]:
    """The contract harness's inputs (and two more), in ``dtype``."""
    nan = _smooth((8, 16))
    nan[::3, ::5] = np.nan
    inf = _smooth((8, 16))
    inf[2, 3] = np.inf
    inf[5, 11] = -np.inf
    fill = _smooth((8, 16))
    fill[::4, ::3] = np.float32(FILL_VALUE)
    signed_zeros = _smooth((4, 40)) - np.float32(100.0)
    signed_zeros[:, ::7] = np.float32(-0.0)
    cases = {
        "smooth-3d": _smooth((3, 4, 20)),
        "nan": nan,
        "inf": inf,
        "fill": fill,
        "constant": np.full((8, 16), 3.25, dtype=np.float32),
        "subnormal": np.arange(-64, 64, dtype=np.float32).reshape(8, 16)
        * np.float32(1e-44),
        "single": np.array([1.5], dtype=np.float32),
        "signed-zeros": signed_zeros,
        "long-tail": _smooth((3, 1100)),
    }
    cases = {name: data.astype(dtype) for name, data in cases.items()}
    cases["non-contiguous"] = _smooth((16, 24)).astype(dtype)[::2, ::2]
    return cases


@pytest.fixture(scope="module")
def catalog_fields() -> dict[str, np.ndarray]:
    """One member of all 170 catalog variables on the test grid."""
    config = ReproConfig(ne=3, nlev=5, n_members=3, n_2d=83, n_3d=87)
    fields = CAMEnsemble(config).history_snapshot(0)
    assert len(fields) == 170
    return fields


def _assert_parity(codec, data, label):
    try:
        expected = codec.decompress(codec.compress(data))
    except Exception as exc:  # the type is what is compared
        with pytest.raises(type(exc)):
            codec.reconstruct(data)
        return
    got = codec.reconstruct(data)
    assert got.dtype == expected.dtype, label
    assert got.shape == expected.shape, label
    assert got.tobytes() == expected.tobytes(), label


def _dtypes(codec):
    if codec.properties().bits_32_and_64:
        return (np.float32, np.float64)
    return (np.float32,)


@pytest.mark.parametrize("label", CODECS)
def test_contract_cases(label):
    codec = _codec(label)
    for dtype in _dtypes(codec):
        for name, data in _contract_cases(dtype).items():
            _assert_parity(codec, data, f"{name} {np.dtype(dtype)}")


@pytest.mark.parametrize("label", CODECS)
def test_catalog_variables(label, catalog_fields):
    codec = _codec(label)
    for name, field in catalog_fields.items():
        for dtype in _dtypes(codec):
            _assert_parity(codec, field.astype(dtype, copy=False),
                           f"{name} {np.dtype(dtype)}")


def test_float64_rejected_alike():
    codec = get_variant("GRIB2")
    data = _smooth((4, 8)).astype(np.float64)
    with pytest.raises(TypeError):
        codec.compress(data)
    with pytest.raises(TypeError):
        codec.reconstruct(data)


@pytest.mark.parametrize("bad", [np.empty(0, dtype=np.float32),
                                 np.float32(3.5),
                                 np.arange(4, dtype=np.int32)])
def test_input_checks_match_compress(bad):
    codec = get_variant("SZ-rel-0.001")
    with pytest.raises(Exception) as compress_exc:
        codec.compress(bad)
    with pytest.raises(compress_exc.type):
        codec.reconstruct(bad)

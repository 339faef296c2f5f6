"""On-disk cache: bit-exact round trips, version gating, corruption handling."""

import json
import logging
import os

import numpy as np
import pytest

from lfunlab.cache import CACHE_DIR_ENV, CACHE_VERSION, ReportCache, default_cache_dir
from lfunlab.chars import build_character_table


@pytest.fixture
def cache(tmp_path):
    return ReportCache(str(tmp_path / "lab-cache"))


def edit_entry(path, edit):
    """Rewrite a cache archive in place after edit(meta, arrays) has changed it."""
    with np.load(path, allow_pickle=False) as archive:
        arrays = dict(archive)
    meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    edit(meta, arrays)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


def test_table_roundtrip_bit_exact(cache):
    t = build_character_table(35)
    cache.put_table(t)
    back = cache.get_table(35)
    assert back is not None
    assert back.q == t.q and back.phi == t.phi and back.exponent == t.exponent
    assert back.orders == t.orders
    assert np.array_equal(back.residue_index, t.residue_index)
    assert np.array_equal(back.values_matrix(), t.values_matrix())
    assert np.array_equal(back.conjugate_map, t.conjugate_map)
    assert back.components == t.components
    assert back.principal_index == t.principal_index


def test_table_miss_when_cold(cache):
    assert cache.get_table(35) is None


def test_lvec_roundtrip_bit_exact(cache):
    rng = np.random.default_rng(7)
    vec = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    cache.put_lvec(35, 7, 2, "closed_direct", vec)
    back = cache.get_lvec(35, 7, 2, "closed_direct")
    assert back is not None
    assert back.dtype == np.complex128
    assert np.array_equal(back, vec)  # the complex128 archive is exact


def test_lvec_keyed_by_method_and_shift(cache):
    vec = np.arange(4, dtype=np.complex128)
    cache.put_lvec(5, 1, 1, "closed_direct", vec)
    assert cache.get_lvec(5, 1, 1, "closed_lemma1") is None
    assert cache.get_lvec(5, 2, 1, "closed_direct") is None
    assert cache.get_lvec(5, 1, 1, "closed_direct") is not None


def test_version_mismatch_is_silent_miss(cache, tmp_path):
    t = build_character_table(12)
    cache.put_table(t)
    path = cache._table_path(12)
    data = dict(np.load(path, allow_pickle=False))
    meta = json.loads(bytes(data["meta"]).decode("utf-8"))
    meta["version"] = CACHE_VERSION + 1
    data["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path.removesuffix(".npz"), **data)
    assert cache.get_table(12) is None
    assert os.path.exists(path)  # future versions are left alone


def test_version_1_dense_table_is_silent_miss(cache, caplog):
    # Version 1 stored the dense exponent matrix instead of the logs.
    t = build_character_table(12)
    cache.put_table(t)
    path = cache._table_path(12)

    def to_version_1(meta, arrays):
        meta["version"] = 1
        meta.pop("orders")
        del arrays["residue_index"]
        # The int32 phi x q matrix in its version-1 shape; a version mismatch
        # is a miss before any array is read.
        arrays["value_exponents"] = np.full((t.phi, t.q), -1, dtype=np.int32)

    edit_entry(path, to_version_1)
    with caplog.at_level(logging.WARNING, logger="lfunlab.cache"):
        assert cache.get_table(12) is None
    assert os.path.exists(path)
    assert not caplog.records


def test_table_with_misplaced_logs_discarded(cache, caplog):
    cache.put_table(build_character_table(12))
    path = cache._table_path(12)

    def place_two_units_on_one_character(meta, arrays):
        arrays["residue_index"] = arrays["residue_index"].copy()
        arrays["residue_index"][5] = arrays["residue_index"][7]

    edit_entry(path, place_two_units_on_one_character)
    with caplog.at_level(logging.WARNING, logger="lfunlab.cache"):
        assert cache.get_table(12) is None
    assert not os.path.exists(path)


def test_corrupt_table_discarded_with_warning(cache, caplog):
    t = build_character_table(12)
    cache.put_table(t)
    path = cache._table_path(12)
    with open(path, "wb") as handle:
        handle.write(b"not an npz archive")
    with caplog.at_level(logging.WARNING, logger="lfunlab.cache"):
        assert cache.get_table(12) is None
    assert not os.path.exists(path)
    assert any("discard" in r.message for r in caplog.records)


def test_table_meta_without_components_discarded(cache, caplog):
    cache.put_table(build_character_table(12))
    path = cache._table_path(12)
    edit_entry(path, lambda meta, arrays: meta.pop("components"))
    with caplog.at_level(logging.WARNING, logger="lfunlab.cache"):
        assert cache.get_table(12) is None
    assert not os.path.exists(path)
    assert any("discard" in r.message for r in caplog.records)


def test_corrupt_lvec_discarded(cache, caplog):
    vec = np.ones(4, dtype=np.complex128)
    cache.put_lvec(5, 1, 1, "closed_direct", vec)
    path = cache._lvec_path(5, 1, 1, "closed_direct")
    with open(path, "wb") as handle:
        handle.write(b"not an npz archive")
    with caplog.at_level(logging.WARNING, logger="lfunlab.cache"):
        assert cache.get_lvec(5, 1, 1, "closed_direct") is None
    assert not os.path.exists(path)
    assert any("discard" in r.message for r in caplog.records)


def test_re_im_length_mismatch_discarded(cache):
    # The stored vector is shorter than the length its meta record declares.
    cache.put_lvec(5, 1, 1, "closed_direct", np.ones(4, dtype=np.complex128))
    path = cache._lvec_path(5, 1, 1, "closed_direct")
    edit_entry(path, lambda meta, arrays: arrays.update(values=arrays["values"][:-1]))
    assert cache.get_lvec(5, 1, 1, "closed_direct") is None
    assert not os.path.exists(path)


def test_wrong_key_fields_are_a_miss(cache):
    cache.put_lvec(5, 1, 1, "closed_direct", np.ones(4, dtype=np.complex128))
    path = cache._lvec_path(5, 1, 1, "closed_direct")
    edit_entry(path, lambda meta, arrays: meta.update(q=7))
    assert cache.get_lvec(5, 1, 1, "closed_direct") is None


def test_entries_and_clear(cache):
    t = build_character_table(5)
    cache.put_table(t)
    cache.put_lvec(5, 1, 1, "closed_direct", np.ones(4, dtype=np.complex128))
    names = cache.entries()
    assert len(names) == 2
    assert any(n.startswith("table_") for n in names)
    assert any(n.startswith("lvec_") for n in names)
    assert not any(n.endswith(".tmp") for n in names)
    assert cache.clear() == 2
    assert cache.entries() == []


def test_atomic_write_leaves_no_temp_files(cache):
    for q in (5, 7, 12):
        cache.put_table(build_character_table(q))
    leftovers = [n for n in os.listdir(cache.directory) if n.endswith(".tmp")]
    assert leftovers == []


def test_default_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "override"))
    assert default_cache_dir() == str(tmp_path / "override")

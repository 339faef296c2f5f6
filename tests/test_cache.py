"""On-disk cache: bit-exact round trips, version gating, corruption handling."""

import hashlib
import json
import logging
import os
import re
import stat
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lfunlab import chars, cli
from lfunlab.arith import discrete_log_array
from lfunlab.cache import (
    _LVEC_ARRAYS,
    _TABLE_ARRAYS,
    CACHE_DIR_ENV,
    CACHE_VERSION,
    LVEC_ROUTES,
    ReportCache,
    _checksum,
    default_cache_dir,
)
from lfunlab.chars import build_character_table


@pytest.fixture
def cache(tmp_path):
    return ReportCache(str(tmp_path / "lab-cache"))


def layout_of(path):
    return _TABLE_ARRAYS if os.path.basename(path).startswith("table_") else _LVEC_ARRAYS


def without_crc(meta):
    return {k: v for k, v in meta.items() if k != "crc32"}


def read_record(path):
    """(meta line, payload bytes) of a cache record."""
    with open(path, "rb") as handle:
        line, newline, payload = handle.read().partition(b"\n")
    assert newline
    return json.loads(line), payload


def write_record(path, meta, payload):
    with open(path, "wb") as handle:
        handle.write(json.dumps(meta).encode("utf-8") + b"\n" + payload)


def random_routes(seed, n):
    """{route: vector} of n random complex values for every stored route."""
    rng = np.random.default_rng(seed)
    return {route: rng.standard_normal(n) + 1j * rng.standard_normal(n) for route in LVEC_ROUTES}


def edit_entry(path, edit):
    """Rewrite a cache record in place after edit(meta, arrays) has changed it.

    The array lengths and the record checksum are recomputed, so the read
    gets past them to the check the edit targets.
    """
    meta, payload = read_record(path)
    meta = without_crc(meta)
    arrays, offset = {}, 0
    for (name, dtype), n in zip(layout_of(path), meta["lengths"]):
        arrays[name] = np.frombuffer(payload, dtype=dtype, count=n, offset=offset).copy()
        offset += arrays[name].nbytes
    assert offset == len(payload)
    edit(meta, arrays)
    payload = b"".join(np.ascontiguousarray(a).tobytes() for a in arrays.values())
    meta["lengths"] = [a.size for a in arrays.values()]
    meta["crc32"] = _checksum(meta, payload)
    write_record(path, meta, payload)


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
    vecs = random_routes(7, 24)
    cache.put_lvec(35, 7, 2, vecs)
    back = cache.get_lvec(35, 7, 2)
    assert back is not None
    assert list(back) == list(LVEC_ROUTES) == ["closed_direct", "closed_lemma1"]
    for route, vec in vecs.items():
        assert back[route].dtype == np.complex128
        assert np.array_equal(back[route], vec)  # the complex128 record is exact
    assert os.listdir(cache.directory) == ["lvec_q35_a7_2.rec"]  # one record for both routes


def test_lvec_keyed_by_method_and_shift(cache):
    # One record per (q, a) holds each route under its own name.
    vecs = {"closed_direct": np.arange(4, dtype=np.complex128),
            "closed_lemma1": np.arange(4, 8, dtype=np.complex128)}
    cache.put_lvec(5, 1, 1, vecs)
    back = cache.get_lvec(5, 1, 1)
    assert all(np.array_equal(back[route], vec) for route, vec in vecs.items())
    assert cache.get_lvec(5, 2, 1) is None
    assert cache.get_lvec(5, 1, 2) is None
    assert cache.get_lvec(7, 1, 1) is None
    with pytest.raises(KeyError):
        cache.put_lvec(5, 1, 1, {"closed_direct": vecs["closed_direct"]})  # both routes or nothing


def test_version_mismatch_is_silent_miss(cache, tmp_path):
    t = build_character_table(12)
    cache.put_table(t)
    path = cache._table_path(12)
    edit_entry(path, lambda meta, arrays: meta.update(version=CACHE_VERSION + 1))
    assert cache.get_table(12) is None
    assert os.path.exists(path)  # future versions are left alone


def test_lvec_version_mismatch_is_silent_miss(cache, caplog):
    cache.put_lvec(5, 1, 1, random_routes(2, 4))
    path = cache._lvec_path(5, 1, 1)
    edit_entry(path, lambda meta, arrays: meta.update(version=CACHE_VERSION + 1))
    with caplog.at_level(logging.WARNING, logger="lfunlab.cache"):
        assert cache.get_lvec(5, 1, 1) is None
    assert os.path.exists(path)
    assert not caplog.records


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


def test_record_holds_only_the_stored_fields(cache):
    cache.put_table(build_character_table(13))
    meta, payload = read_record(cache._table_path(13))
    assert set(meta) == {"version", "q", "components", "orders", "lengths", "crc32"}
    assert meta["components"] == [[13, [2], [12]]] and meta["orders"] == [12]
    assert meta["lengths"] == [13] and len(payload) == 8 * 13


def _swap_logs_of_2_and_3(meta, arrays):
    arrays["residue_index"][[2, 3]] = arrays["residue_index"][[3, 2]]


def _to_version_3(meta, arrays):
    # Version 3 also stored phi, the exponent and the conjugation map.
    meta.update(version=3, phi=12, exponent=24)
    arrays["conjugate_map"] = chars._negation((12,))


def _lvalue_stdout(capsys):
    assert cli.run(["lvalue", "--q", "13", "--j", "1"]) == 0
    return capsys.readouterr().out


def _lvalue_refuses_the_cache_dir(cache, capsys):
    """lvalue takes no cache flag: --cache-dir exits 2 before any work and
    leaves the cache directory as it was."""
    def contents():
        return {name: (Path(cache.directory) / name).read_bytes() for name in os.listdir(cache.directory)}

    before = contents()
    with pytest.raises(SystemExit) as exc:
        cli.run(["lvalue", "--q", "13", "--j", "1", "--cache-dir", cache.directory])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cache-dir" in capsys.readouterr().err
    assert contents() == before


def _stored_exponent(meta, arrays):
    meta.update(phi=12, exponent=24)


@pytest.mark.parametrize("edit, warned", [
    (_swap_logs_of_2_and_3, True),
    (_stored_exponent, False),
    (_to_version_3, False),
], ids=["swapped_logs", "stored_exponent", "version_3"])
def test_edited_table_record_never_changes_lvalue(cache, caplog, capsys, edit, warned):
    # Each record keeps a valid checksum.  lvalue takes no cache flag and
    # reads no stored table, so it prints the uncached bytes.  Read through
    # the library, swapping the logs of 2 and 3 keeps the units on the grid
    # once each but breaks the group law, and is discarded; an exponent of 24
    # in the meta line is not read, since the exponent is derived from the
    # orders; and a version-3 record is a silent miss.
    uncached = _lvalue_stdout(capsys)
    assert "1.30081758+0.53393692i" in uncached
    cache.put_table(build_character_table(13))
    path = cache._table_path(13)
    edit_entry(path, edit)
    with caplog.at_level(logging.WARNING, logger="lfunlab.cache"):
        _lvalue_refuses_the_cache_dir(cache, capsys)
        assert _lvalue_stdout(capsys) == uncached
        assert not caplog.records
        back = cache.get_table(13)
    assert any("certificate" in r.getMessage() for r in caplog.records) == warned
    assert (back is None) == (edit is not _stored_exponent)
    assert os.path.exists(path) != warned


def test_table_on_another_root_never_changes_lvalue(cache, capsys):
    # Logs to the primitive root 6 instead of 2, with 6 as the generator,
    # pass the certificate and number the characters differently; lvalue
    # takes no cache flag, builds its table and never reads the record.
    uncached = _lvalue_stdout(capsys)
    assert "1.30081758+0.53393692i" in uncached
    planted = chars.CharacterTable(13, (chars.GroupComponent(13, (6,), (12,)),), (12,),
                                   discrete_log_array(13, 6))
    assert chars._certifies_logs(planted)
    cache.put_table(planted)
    _lvalue_refuses_the_cache_dir(cache, capsys)
    assert _lvalue_stdout(capsys) == uncached


@pytest.mark.parametrize("component", [[13, [6], [12]], [1000, [2], [12]], [13, [], [12]]],
                         ids=["generator", "prime_power", "no_generator"])
def test_table_with_a_wrong_component_discarded(cache, caplog, component):
    # 6 is a primitive root mod 13 too, but the stored logs are to the base 2;
    # 2 mod 1000 is still 2, but 1000 is no prime power of 13; and an axis
    # without a generator would go unchecked.  Each would change what
    # `lfunlab chars` prints.
    cache.put_table(build_character_table(13))
    path = cache._table_path(13)

    def regenerate(meta, arrays):
        assert meta["components"] == [[13, [2], [12]]]
        meta["components"] = [component]

    edit_entry(path, regenerate)
    _assert_discarded(path, lambda: cache.get_table(13), caplog, "certificate")


@pytest.mark.parametrize("mark", [4, -2], ids=["log_phi", "marker_-2"])
def test_table_with_out_of_range_log_discarded(cache, caplog, mark):
    # A log at phi or beyond, or a negative mark other than the non-unit -1.
    cache.put_table(build_character_table(12))
    path = cache._table_path(12)
    target = 5 if mark >= 0 else 2  # a unit, or a non-unit
    edit_entry(path, lambda meta, arrays: arrays["residue_index"].__setitem__(target, mark))
    with caplog.at_level(logging.WARNING, logger="lfunlab.cache"):
        assert cache.get_table(12) is None
    assert not os.path.exists(path)
    assert any("discard" in r.message for r in caplog.records)


def test_corrupt_table_discarded_with_warning(cache, caplog):
    t = build_character_table(12)
    cache.put_table(t)
    path = cache._table_path(12)
    with open(path, "wb") as handle:
        handle.write(b"not a cache record")
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
    cache.put_lvec(5, 1, 1, random_routes(1, 4))
    path = cache._lvec_path(5, 1, 1)
    with open(path, "wb") as handle:
        handle.write(b"not a cache record")
    with caplog.at_level(logging.WARNING, logger="lfunlab.cache"):
        assert cache.get_lvec(5, 1, 1) is None
    assert not os.path.exists(path)
    assert any("discard" in r.message for r in caplog.records)


def test_re_im_length_mismatch_discarded(cache):
    # Either stored vector is shorter than the length its meta record declares.
    for route in LVEC_ROUTES:
        cache.put_lvec(5, 1, 1, random_routes(1, 4))
        path = cache._lvec_path(5, 1, 1)
        edit_entry(path, lambda meta, arrays: arrays.update({route: arrays[route][:-1]}))
        assert cache.get_lvec(5, 1, 1) is None, route
        assert not os.path.exists(path)


def test_wrong_key_fields_are_a_miss(cache):
    for field, value in (("q", 7), ("a_num", 2), ("a_den", 2)):
        cache.put_lvec(5, 1, 1, random_routes(1, 4))
        path = cache._lvec_path(5, 1, 1)
        edit_entry(path, lambda meta, arrays: meta.update({field: value}))
        assert cache.get_lvec(5, 1, 1) is None, field
        assert os.path.exists(path)


def test_entries_and_clear(cache):
    t = build_character_table(5)
    cache.put_table(t)
    cache.put_lvec(5, 1, 1, random_routes(1, 4))
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


def test_record_bytes_and_mode_are_pinned(cache):
    vecs = {"closed_direct": np.array([1 + 2j, -0.5j, 3.0, 0.25]),
            "closed_lemma1": np.array([1 + 2j, -0.5j, 3.0, 0.25 + 1e-17j])}
    cache.put_lvec(7, 3, 2, vecs)
    path = Path(cache._lvec_path(7, 3, 2))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "0eca0a8462dd1a8627b3d91c9d17952635a91026db2c1c79afb86940f05d6693"
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    assert os.listdir(cache.directory) == [path.name]


def test_each_write_draws_its_own_temp(cache, monkeypatch):
    # Writers sharing a pid (threads, other pid namespaces) never share a temp.
    temps = []
    open_ = os.open
    monkeypatch.setattr(os, "open", lambda path, *args: temps.append(path) or open_(path, *args))
    for _ in range(2):
        cache.put_lvec(5, 1, 1, random_routes(5, 4))
    assert len(set(temps)) == 2
    pattern = re.escape(f"{cache._lvec_path(5, 1, 1)}.{os.getpid()}.") + r"[0-9a-f]{8}\.tmp"
    assert all(re.fullmatch(pattern, t) for t in temps)
    assert os.listdir(cache.directory) == ["lvec_q5_a1_1.rec"]


def test_write_makes_the_directory_only_when_missing(cache, monkeypatch):
    made = []
    makedirs = os.makedirs
    monkeypatch.setattr(os, "makedirs", lambda *args, **kw: made.append(args[0]) or makedirs(*args, **kw))
    for q in (5, 7, 11):
        cache.put_lvec(q, 1, 1, random_routes(q, 4))
    assert made == [cache.directory]
    assert len(cache.entries()) == 3


def test_temp_removed_before_the_rename_stores_nothing(cache, caplog, monkeypatch):
    # A concurrent clear removes the live temp: the write warns and returns.
    replace = os.replace
    monkeypatch.setattr(os, "replace", lambda src, dst: os.unlink(src) or replace(src, dst))
    with caplog.at_level(logging.WARNING, logger="lfunlab"):
        cache.put_lvec(5, 1, 1, random_routes(5, 4))
    assert os.listdir(cache.directory) == []
    assert "not stored" in caplog.text


def test_clear_removes_orphaned_temps(cache, capsys):
    cache.put_lvec(7, 1, 1, random_routes(7, 4))
    orphans = ["lvec_q7_a1_1.rec.4242.0a1b2c3d.tmp", "table_q5.rec.99.ffffffff.tmp", "tmpk3_x9qzz.tmp"]
    kept = ["notes.txt", "other.tmp", "tmpfoo.tmp", "lvec_notes.tmp", "table_q5.rec.99.tmp"]
    for name in orphans + kept:
        Path(cache.directory, name).write_bytes(b"x")
    assert cli.run(["cache", "--cache-dir", cache.directory, "--clear"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["entries: 0 character tables, 1 L-vector records",
                                                        "cleared 1 entries"]
    assert sorted(os.listdir(cache.directory)) == sorted(kept)


def test_default_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "override"))
    assert default_cache_dir() == str(tmp_path / "override")


def _table_entry(cache):
    cache.put_table(build_character_table(12))
    return cache._table_path(12), lambda: cache.get_table(12)


def _lvec_entry(cache):
    cache.put_lvec(5, 1, 1, random_routes(3, 4))
    return cache._lvec_path(5, 1, 1), lambda: cache.get_lvec(5, 1, 1)


ENTRY_KINDS = pytest.mark.parametrize("entry", [_table_entry, _lvec_entry], ids=["table", "lvec"])


def _assert_discarded(path, get, caplog, reason):
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="lfunlab.cache"):
        assert get() is None
    assert not os.path.exists(path)
    messages = [r.getMessage() for r in caplog.records]
    assert any("discard" in m and reason in m for m in messages), messages


@ENTRY_KINDS
def test_record_layout(cache, entry):
    path, get = entry(cache)
    meta, payload = read_record(path)
    assert path.endswith(".rec")
    assert meta["version"] == CACHE_VERSION == 4
    assert len(payload) == sum(n * np.dtype(d).itemsize for n, (_, d) in zip(meta["lengths"], layout_of(path)))
    assert meta["crc32"] == _checksum(without_crc(meta), payload)
    assert get() is not None


def _same_entry(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(a[k].tobytes() == b[k].tobytes() for k in a)
    return ((a.q, a.components, a.orders) == (b.q, b.components, b.orders)
            and np.array_equal(a.residue_index, b.residue_index))


@ENTRY_KINDS
def test_every_flipped_bit_is_discarded_or_missed(cache, caplog, entry):
    # A flipped payload bit fails the checksum.  A flipped meta bit is
    # discarded with a warning or, where it turns the version or a key field
    # into another one, is a silent miss; it never yields a different entry.
    path, get = entry(cache)
    original = get()
    with open(path, "rb") as handle:
        record = handle.read()
    newline = record.index(b"\n")
    for pos in range(len(record)):
        path, get = entry(cache)
        flipped = bytearray(record)
        flipped[pos] ^= 1 << (pos % 8)
        with open(path, "wb") as handle:
            handle.write(flipped)
        if pos > newline:
            _assert_discarded(path, get, caplog, "checksum")
            continue
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="lfunlab.cache"):
            got = get()
        if got is not None:
            assert _same_entry(got, original), pos
        elif caplog.records:
            assert not os.path.exists(path), pos
        else:
            assert os.path.exists(path), pos


def test_edited_orders_fail_the_checksum(cache, caplog):
    # One bit turns the orders (2, 2) of the table mod 12 into (3, 2).
    cache.put_table(build_character_table(12))
    path = cache._table_path(12)
    meta, payload = read_record(path)
    assert meta["orders"] == [2, 2]
    meta["orders"] = [3, 2]
    write_record(path, meta, payload)
    _assert_discarded(path, lambda: cache.get_table(12), caplog, "checksum")


@ENTRY_KINDS
@pytest.mark.parametrize("cut", [1, 8, "meta"])
def test_truncated_record_discarded_with_warning(cache, caplog, entry, cut):
    path, get = entry(cache)
    with open(path, "rb") as handle:
        record = handle.read()
    keep = record.index(b"\n") // 2 if cut == "meta" else len(record) - cut
    with open(path, "wb") as handle:
        handle.write(record[:keep])
    _assert_discarded(path, get, caplog, "" if cut == "meta" else "payload bytes")


@ENTRY_KINDS
def test_appended_byte_discarded_with_warning(cache, caplog, entry):
    path, get = entry(cache)
    with open(path, "ab") as handle:
        handle.write(b"\0")
    _assert_discarded(path, get, caplog, "payload bytes")


@ENTRY_KINDS
def test_overlong_declared_length_discarded_without_allocating(cache, caplog, entry):
    # The last array claims 10**7 entries (80 MB or more) the file does not hold.
    path, get = entry(cache)
    meta, payload = read_record(path)
    meta["lengths"][-1] = 10**7
    write_record(path, meta, payload)
    tracemalloc.start()
    try:
        _assert_discarded(path, get, caplog, "payload bytes")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@ENTRY_KINDS
@pytest.mark.parametrize("lengths", [[-1, 1], [1], [2.0, 2.0], "4"])
def test_malformed_lengths_discarded(cache, caplog, entry, lengths):
    path, get = entry(cache)
    meta, payload = read_record(path)
    meta["lengths"] = lengths
    write_record(path, meta, payload)
    _assert_discarded(path, get, caplog, "")

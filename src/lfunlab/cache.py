"""On-disk cache for character tables and L-value vectors.

Every entry is one flat record: a JSON meta line, then the raw little-endian
bytes of its arrays back to back.  The meta line holds the format version
(4 since a table record holds its logs alone), the entry's key, the length
of each array and a zlib.crc32 of every other meta field (as canonical
JSON) followed by the payload.  The dtype of each array is fixed by the
entry kind, never read from the file: a character table record holds q, the
group components and the cyclic orders in the meta line and the per-residue
flat log index residue_index as one <i8 array, and is read back only when
chars._certifies_logs certifies it (phi, the exponent and the conjugation
map are derived from the orders); an L-vector record holds, for one modulus
q and shift a, the closed_direct and closed_lemma1 vectors as two <c16
arrays.  Both representations are exact, so a cache hit is bit-identical to
a recomputation.

A version or key mismatch is a silent cache miss that leaves the file
alone.  A record whose checksum fails, a payload whose declared lengths do
not cover it exactly, a table that fails the certificate, or an entry that
cannot be decoded, is deleted with a warning and recomputed by the caller.

Nothing in the package stores or reads a table record: building a table
costs less than reading and certifying a stored one, and the certificate
proves a stored table consistent, not equal to the built one (logs to
another primitive root pass it and renumber the characters).  Every command
builds its tables in process (a sweep per batch of moduli, the others
through the chars.get_table memo); the mean-value statistics store and
read L-vector records only.  put_table and get_table
remain as library API.  A ReportCache handle holds only its directory:
every load reads the record again.  A record is written to a temp file and
renamed into place (_atomic_write); temps are not entries, and clear()
removes them too.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import re
import zlib
from dataclasses import dataclass

import numpy as np

from .chars import CharacterTable, GroupComponent, _certifies_logs

log = logging.getLogger("lfunlab")

CACHE_VERSION = 4
CACHE_DIR_ENV = "LFUNLAB_CACHE_DIR"
# The arrays of each entry kind, in payload order, with their stored dtypes.
_TABLE_ARRAYS = (("residue_index", "<i8"),)
# The L-vector routes a record holds; the truncated route is the oracle and is never stored.
LVEC_ROUTES = ("closed_direct", "closed_lemma1")
_LVEC_ARRAYS = tuple((route, "<c16") for route in LVEC_ROUTES)
# The temps a write may leave behind: <record>.<pid>.<token>.tmp, and the
# tmpXXXXXXXX.tmp of the tempfile.mkstemp of earlier versions.
_TEMP_NAME = re.compile(r"(?:table|lvec)_\w+\.rec\.\d+\.[0-9a-f]{8}\.tmp|tmp[a-z0-9_]{8}\.tmp")


def default_cache_dir() -> str:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "lfunlab")


def _atomic_write(path: str, data: bytes) -> None:
    """Store data at path through the temp <path>.<pid>.<token>.tmp: one
    exclusive create (mode 0600), the writes, one rename.

    The token is 8 random hex digits drawn for each write, so two writers
    never share a temp, even threads of one process or processes with the
    same pid in other pid namespaces.  The directory is made only when the
    create finds it missing.  A temp removed before the rename (by a
    concurrent clear) stores nothing, with a warning.
    """
    tmp = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    try:
        fd = os.open(tmp, flags, 0o600)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd = os.open(tmp, flags, 0o600)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except FileNotFoundError:
        log.warning("cache record %s not stored: its temp file was removed before the rename", path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _checksum(fields: dict, payload: bytes) -> int:
    """zlib.crc32 of the meta fields other than crc32, as canonical JSON,
    followed by the payload: a flipped bit in either is caught."""
    return zlib.crc32(payload, zlib.crc32(json.dumps(fields, sort_keys=True).encode()))


def _split_payload(payload: bytes, meta: dict, layout) -> dict[str, np.ndarray]:
    """The arrays of layout, read-only views into payload, once the lengths
    in meta cover it exactly and the record's checksum matches."""
    lengths = meta["lengths"]
    if len(lengths) != len(layout) or not all(type(n) is int and n >= 0 for n in lengths):
        raise ValueError(f"array lengths {lengths!r} do not fit the entry kind")
    sizes = [n * np.dtype(dtype).itemsize for n, (_, dtype) in zip(lengths, layout)]
    if sum(sizes) != len(payload):
        raise ValueError(f"lengths declare {sum(sizes)} payload bytes, the record holds {len(payload)}")
    fields = {k: v for k, v in meta.items() if k != "crc32"}
    if _checksum(fields, payload) != meta["crc32"]:
        raise ValueError("record checksum mismatch")
    arrays, offset = {}, 0
    for (name, dtype), n, size in zip(layout, lengths, sizes):
        arrays[name] = np.frombuffer(payload, dtype=dtype, count=n, offset=offset)
        offset += size
    return arrays


def _decode_table(meta: dict, arrays: dict) -> CharacterTable:
    components = tuple(
        GroupComponent(pk, tuple(gens), tuple(orders)) for pk, gens, orders in meta["components"]
    )
    t = CharacterTable(meta["q"], components, tuple(meta["orders"]),
                       np.array(arrays["residue_index"], dtype=np.int64))
    if not _certifies_logs(t):
        raise ValueError("the stored logs fail the character-group certificate")
    return t


def _decode_lvec(meta: dict, arrays: dict) -> dict[str, np.ndarray]:
    vecs = {route: np.array(v, dtype=np.complex128) for route, v in arrays.items()}
    shapes = [v.shape for v in vecs.values()]
    if any(shape != (meta["length"],) for shape in shapes):
        raise ValueError(f"lengths {shapes} != {meta['length']}")
    return vecs


@dataclass(frozen=True)
class ReportCache:
    """Handle on one cache directory; safe to construct per worker process."""

    directory: str

    def _table_path(self, q: int) -> str:
        return os.path.join(self.directory, f"table_q{q}.rec")

    def _lvec_path(self, q: int, a_num: int, a_den: int) -> str:
        return os.path.join(self.directory, f"lvec_q{q}_a{a_num}_{a_den}.rec")

    def _write(self, path: str, meta: dict, layout, *arrays: np.ndarray) -> None:
        """Store the arrays, in the dtypes of layout, after a JSON meta line
        holding the format version, meta, their lengths and the checksum."""
        arrays = [np.asarray(a, dtype=dtype) for (_, dtype), a in zip(layout, arrays)]
        payload = b"".join(a.tobytes() for a in arrays)
        head = {"version": CACHE_VERSION, **meta, "lengths": [a.size for a in arrays]}
        head["crc32"] = _checksum(head, payload)
        _atomic_write(path, json.dumps(head).encode() + b"\n" + payload)

    def _read(self, path: str, key: dict, layout, decode):
        """decode(meta, arrays) for the entry at path, or None.

        A missing entry, another format version or meta fields that differ
        from key are a silent miss.  A record that fails its checksum, a
        payload that fails its declared lengths, and any failure to read or
        decode the entry, discard it with a warning.
        """
        try:
            with open(path, "rb") as handle:
                record = handle.read()
            line, _, payload = record.partition(b"\n")
            meta = json.loads(line)
            if meta.get("version") != CACHE_VERSION:
                return None
            if any(meta.get(field) != value for field, value in key.items()):
                return None
            return decode(meta, _split_payload(payload, meta, layout))
        except FileNotFoundError:
            return None
        except Exception as exc:
            log.warning("discarding corrupt cache entry %s (%s)", path, exc)
            try:
                os.unlink(path)
            except OSError:
                pass
            return None

    # -- character tables ---------------------------------------------------

    def put_table(self, table: CharacterTable) -> None:
        meta = {
            "q": table.q,
            "components": [
                [c.prime_power, list(c.generators), list(c.orders)] for c in table.components
            ],
            "orders": list(table.orders),
        }
        self._write(self._table_path(table.q), meta, _TABLE_ARRAYS, table.residue_index)

    def get_table(self, q: int) -> CharacterTable | None:
        return self._read(self._table_path(q), {"q": q}, _TABLE_ARRAYS, _decode_table)

    # -- L-value vectors ----------------------------------------------------

    def put_lvec(self, q: int, a_num: int, a_den: int, vecs: dict[str, np.ndarray]) -> None:
        """Store the vector of every route in LVEC_ROUTES at (q, a) as one record."""
        routes = [vecs[route] for route in LVEC_ROUTES]
        meta = {"q": q, "a_num": a_num, "a_den": a_den, "length": len(routes[0])}
        self._write(self._lvec_path(q, a_num, a_den), meta, _LVEC_ARRAYS, *routes)

    def get_lvec(self, q: int, a_num: int, a_den: int) -> dict[str, np.ndarray] | None:
        """{route: vector} over LVEC_ROUTES at (q, a), or None."""
        key = {"q": q, "a_num": a_num, "a_den": a_den}
        return self._read(self._lvec_path(q, a_num, a_den), key, _LVEC_ARRAYS, _decode_lvec)

    # -- maintenance ----------------------------------------------------------

    def entries(self) -> list[str]:
        if not os.path.isdir(self.directory):
            return []
        return sorted(
            name
            for name in os.listdir(self.directory)
            if name.startswith(("table_", "lvec_")) and not name.endswith(".tmp")
        )

    def clear(self) -> int:
        """Remove every entry, and every temp of the cache's own names (an
        interrupted write's <record>.<pid>.<token>.tmp, or an older writer's
        mkstemp tmpXXXXXXXX.tmp), live ones included; return the number of
        entries removed.  Other files, .tmp or not, are left alone."""
        if not os.path.isdir(self.directory):
            return 0
        for name in os.listdir(self.directory):
            if _TEMP_NAME.fullmatch(name):
                with contextlib.suppress(OSError):
                    os.unlink(os.path.join(self.directory, name))
        removed = 0
        for name in self.entries():
            try:
                os.unlink(os.path.join(self.directory, name))
                removed += 1
            except OSError:
                pass
        return removed

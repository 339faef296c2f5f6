"""On-disk cache for character tables and L-value vectors.

Both entry kinds are .npz archives with a JSON meta record.  A character
table entry holds the table's O(q) discrete-log data: the per-residue flat
log index and the conjugation map as arrays, the cyclic orders and group
components in the meta record.  An L-value vector entry holds the complex128
values.  Both representations are exact, so a cache hit is bit-identical to
a recomputation.  Every entry carries a format version (2 since tables
store logs instead of the dense exponent matrix) and its key; a version or
key mismatch is a cache miss, and an entry that cannot be opened or decoded
is deleted with a warning and recomputed by the caller.

load_table is the one way the package obtains a character table when a
cache may be in use: every CLI subcommand that takes --cache/--cache-dir
and every mean-value statistic goes through it.  A ReportCache handle holds
only its directory: every load reads the archive again.
"""

from __future__ import annotations

import io
import json
import logging
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .chars import CharacterTable, GroupComponent, get_table

log = logging.getLogger("lfunlab")

CACHE_VERSION = 2
CACHE_DIR_ENV = "LFUNLAB_CACHE_DIR"


def default_cache_dir() -> str:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "lfunlab")


def _atomic_write(path: str, data: bytes) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _decode_table(meta: dict, archive) -> CharacterTable:
    q, phi = meta["q"], meta["phi"]
    components = tuple(
        GroupComponent(pk, tuple(gens), tuple(orders)) for pk, gens, orders in meta["components"]
    )
    orders = tuple(meta["orders"])
    if orders != tuple(s for c in components for s in c.orders) or math.prod(orders) != phi:
        raise ValueError(f"orders {orders} do not match the components and phi = {phi}")
    residue_index = np.array(archive["residue_index"], dtype=np.int64)
    conjugate_map = np.array(archive["conjugate_map"], dtype=np.int64)
    if residue_index.shape != (q,) or conjugate_map.shape != (phi,):
        raise ValueError(f"shapes {residue_index.shape}, {conjugate_map.shape}")
    if not np.array_equal(np.sort(residue_index[residue_index >= 0]), np.arange(phi)):
        raise ValueError("residue_index does not place the units on the character grid")
    return CharacterTable(
        q=q,
        phi=phi,
        exponent=meta["exponent"],
        components=components,
        orders=orders,
        residue_index=residue_index,
        conjugate_map=conjugate_map,
    )


def _decode_lvec(meta: dict, archive) -> np.ndarray:
    vec = np.array(archive["values"], dtype=np.complex128)
    if vec.shape != (meta["length"],):
        raise ValueError(f"length {vec.shape} != {meta['length']}")
    return vec


@dataclass(frozen=True)
class ReportCache:
    """Handle on one cache directory; safe to construct per worker process."""

    directory: str

    def _table_path(self, q: int) -> str:
        return os.path.join(self.directory, f"table_q{q}.npz")

    def _lvec_path(self, q: int, a_num: int, a_den: int, method: str) -> str:
        return os.path.join(self.directory, f"lvec_q{q}_a{a_num}_{a_den}_{method}.npz")

    def _write(self, path: str, meta: dict, **arrays: np.ndarray) -> None:
        """Store arrays plus a JSON meta record (with the format version) as .npz."""
        record = json.dumps({"version": CACHE_VERSION, **meta}).encode()
        buf = io.BytesIO()
        np.savez(buf, meta=np.frombuffer(record, dtype=np.uint8), **arrays)
        _atomic_write(path, buf.getvalue())

    def _read(self, path: str, key: dict, decode):
        """decode(meta, archive) for the entry at path, or None.

        A missing entry, another format version or meta fields that differ
        from key are a silent miss.  Any failure to open or decode the entry
        discards it with a warning.
        """
        if not os.path.exists(path):
            return None
        try:
            with np.load(path, allow_pickle=False) as archive:
                meta = json.loads(bytes(archive["meta"]).decode())
                if meta.get("version") != CACHE_VERSION:
                    return None
                if any(meta.get(field) != value for field, value in key.items()):
                    return None
                return decode(meta, archive)
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
            "phi": table.phi,
            "exponent": table.exponent,
            "components": [
                [c.prime_power, list(c.generators), list(c.orders)] for c in table.components
            ],
            "orders": list(table.orders),
        }
        self._write(
            self._table_path(table.q),
            meta,
            residue_index=table.residue_index,
            conjugate_map=table.conjugate_map,
        )

    def get_table(self, q: int) -> CharacterTable | None:
        return self._read(self._table_path(q), {"q": q}, _decode_table)

    # -- L-value vectors ----------------------------------------------------

    def put_lvec(self, q: int, a_num: int, a_den: int, method: str, vec: np.ndarray) -> None:
        meta = {"q": q, "a_num": a_num, "a_den": a_den, "method": method, "length": len(vec)}
        self._write(self._lvec_path(q, a_num, a_den, method), meta,
                    values=np.asarray(vec, dtype=np.complex128))

    def get_lvec(self, q: int, a_num: int, a_den: int, method: str) -> np.ndarray | None:
        key = {"q": q, "a_num": a_num, "a_den": a_den, "method": method}
        return self._read(self._lvec_path(q, a_num, a_den, method), key, _decode_lvec)

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
        removed = 0
        for name in self.entries():
            try:
                os.unlink(os.path.join(self.directory, name))
                removed += 1
            except OSError:
                pass
        return removed


def load_table(q: int, cache: ReportCache | None) -> CharacterTable:
    """The character table mod q: read from the cache when it holds one,
    else built (through the in-process memo) and stored."""
    if cache is None:
        return get_table(q)
    t = cache.get_table(q)
    if t is None:
        t = get_table(q)
        cache.put_table(t)
    return t

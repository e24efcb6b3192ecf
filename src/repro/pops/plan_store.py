"""Persistent content-addressed store for compiled routing plans.

The in-memory :class:`~repro.pops.engine.ScheduleCache` dies with its
process, so every ``sweep --shard-trials`` pool worker, every benchmark
module and every CI job re-lowers identical ``(backend, d, g, permutation)``
plans even though a cache hit skips route construction entirely.  This
module adds the missing durable tier: a :class:`PlanStore` keeps
:class:`~repro.pops.engine.CompiledSchedule` /
:class:`~repro.pops.engine.CompiledScheduleBatch` arrays on disk as ``.npz``
blobs addressed by a digest of the existing cache keys
(:func:`repro.analysis.metrics.routing_cache_key` /
``routing_cache_key_batch``), so any process pointed at the same directory —
a pool worker, a later CI run restored from ``actions/cache``, a serving
daemon starting up — acquires a previously lowered plan with one file read
instead of a full route + lower.

Design points, in the order they matter for correctness:

* **Content addressing.**  :func:`plan_key_digest` folds a cache key into a
  blake2b-128 hex digest over an unambiguous type-tagged encoding (nested
  tuples of ints/strings/bytes/bools/None/floats).  Keys containing anything
  else are simply not persistable — :meth:`PlanStore.get` / ``put`` skip the
  disk tier and the in-memory cache behaves exactly as before.
* **Exact round-trip.**  Blobs record every compiled array with its dtype
  plus the scalar shape metadata (``d``, ``g``, slot/batch counts) and the
  packet universe as a source array (routing packets are payload-free by
  construction; a schedule whose packets carry payloads is refused, since
  payloads are arbitrary objects the key contract does not cover).  A loaded
  plan is bit-identical — array values *and* dtypes — to the stored one,
  pinned by hypothesis in ``tests/test_plan_store.py``.  Batch planes that
  were broadcast views (stride 0 along the batch axis) are stored as their
  single distinct row and re-broadcast on load, so a gigabyte-looking
  broadcast plane costs one row on disk.
* **Atomic writes.**  A blob is written to a unique temporary file in the
  same directory and published with ``os.replace``: readers see either the
  complete old blob or the complete new one, never a torn write, which is
  what makes N writers racing one key safe without locks.
* **Corruption quarantine.**  Every blob embeds a checksum over its array
  bytes.  A blob that fails to open, parse or checksum is atomically moved
  to ``quarantine/`` and reported as a miss, so the caller recompiles
  instead of crashing; ``pops-repro cache verify`` sweeps the whole store
  through the same path.
* **Size-budgeted GC.**  :meth:`PlanStore.gc` deletes oldest-first (by
  mtime) until the store fits a byte budget; a store opened with
  ``max_bytes`` runs the same sweep automatically after writes.
* **Lock-free cumulative counters.**  Each store instance owns one private
  JSON shard under ``stats/`` (overwritten in place — the instance is the
  shard's only writer, and readers skip a shard caught mid-write);
  :meth:`PlanStore.stats` sums the shards, which is how
  ``pops-repro cache stats`` can report disk hits accumulated by *other*
  processes — the cold-vs-warm CI smoke asserts exactly that.

The store never speaks to the network or imports anything heavier than
numpy; the directory layout is ``store.json`` (schema pin) +
``objects/<xx>/<digest>.npz`` + ``quarantine/`` + ``stats/``.
"""

from __future__ import annotations

import json
import os
import uuid
import zipfile
from collections.abc import Hashable
from pathlib import Path
from typing import Any

import numpy as np

from repro.exceptions import ConfigurationError
from repro.obs import get_tracer
from repro.obs.metrics import Counter
from repro.pops.packet import LazyPackets
from repro.pops.topology import POPSNetwork

__all__ = ["PlanStore", "plan_key_digest", "STORE_SCHEMA_VERSION"]

#: Bump when the blob layout or the key encoding changes incompatibly; a
#: store directory written under a different schema refuses to open (CI keys
#: its ``actions/cache`` entry on this constant, so a bump naturally starts
#: a fresh store instead of quarantining every blob).
STORE_SCHEMA_VERSION = 1

#: Array fields of a CompiledSchedule, in checksum order.
_SCHEDULE_FIELDS: tuple[str, ...] = (
    "tx_sender", "tx_packet", "tx_ptr",
    "pay_coupler", "pay_packet", "pay_ptr",
    "del_receiver", "del_packet", "del_ptr",
    "con_packet", "con_ptr",
    "idle_receiver", "idle_coupler",
    "initial_loc", "pk_destination",
)

#: Batch fields carrying a leading ``(B, ·)`` axis (candidates for the
#: broadcast-row compaction); the remaining fields are shared structure.
_BATCH_PLANE_FIELDS: frozenset[str] = frozenset(
    {
        "tx_sender", "tx_packet", "pay_coupler", "pay_packet",
        "del_receiver", "del_packet", "con_packet",
        "initial_loc", "pk_destination",
    }
)


def _encode_key(key: Any, out: list[bytes]) -> bool:
    """Append an unambiguous type-tagged encoding of ``key`` to ``out``.

    Returns ``False`` (leaving ``out`` in an undefined state) when the key
    contains a value outside the supported vocabulary; callers treat that
    key as not persistable.  Tags + explicit lengths make the encoding
    prefix-free, so distinct keys can never collide by concatenation —
    e.g. ``("ab",)`` vs ``("a", "b")``.
    """
    if key is None:
        out.append(b"N;")
    elif isinstance(key, bool):  # before int: bool is an int subclass
        out.append(b"B1;" if key else b"B0;")
    elif isinstance(key, int):
        out.append(b"I%d;" % key)
    elif isinstance(key, float):
        out.append(b"F" + repr(key).encode("ascii") + b";")
    elif isinstance(key, str):
        raw = key.encode("utf-8")
        out.append(b"S%d:" % len(raw))
        out.append(raw)
    elif isinstance(key, bytes):
        out.append(b"Y%d:" % len(key))
        out.append(key)
    elif isinstance(key, tuple):
        out.append(b"T%d:" % len(key))
        for item in key:
            if not _encode_key(item, out):
                return False
    else:
        return False
    return True


def plan_key_digest(key: Hashable) -> str | None:
    """Stable hex digest addressing ``key``'s blob, or ``None``.

    ``None`` means the key is outside the persistable vocabulary (nested
    tuples of ints, strings, bytes, bools, floats and ``None``) and the disk
    tier must be skipped for it.  The digest is blake2b-128 over the
    type-tagged encoding, so it is stable across processes, platforms and
    Python versions — the property content addressing needs.
    """
    import hashlib

    parts: list[bytes] = []
    if not _encode_key(key, parts):
        return None
    return hashlib.blake2b(b"".join(parts), digest_size=16).hexdigest()


def _pack_fields(
    names: list[str], arrays: dict[str, np.ndarray]
) -> tuple[bytes, np.ndarray]:
    """Concatenate the named arrays into one aligned byte buffer + header.

    Blob load latency is dominated by *per-member* zip overhead, not bytes,
    so each blob carries a single ``data`` member holding every field's raw
    bytes (offsets padded to 16 so the load-side views stay aligned) and a
    ``header`` member — JSON ``[[name, dtype, shape, offset, nbytes], ...]``
    as utf-8 bytes — describing how to slice it back.  Returns
    ``(header_bytes, buffer)``.
    """
    chunks: list[bytes] = []
    header: list[list[Any]] = []
    offset = 0
    for name in names:
        arr = np.ascontiguousarray(arrays[name])
        pad = (-offset) % 16
        if pad:
            chunks.append(b"\x00" * pad)
            offset += pad
        raw = arr.tobytes()
        header.append([name, arr.dtype.str, list(arr.shape), offset, len(raw)])
        chunks.append(raw)
        offset += len(raw)
    buffer = np.frombuffer(b"".join(chunks), dtype=np.uint8)
    return json.dumps(header, separators=(",", ":")).encode("utf-8"), buffer


def _content_checksum(
    kind: str, shape_meta: np.ndarray, header: bytes, buffer: np.ndarray
) -> bytes:
    """Checksum over the blob's structure and bytes.

    The header carries every field's name, dtype and shape, so hashing
    ``kind + shape_meta + header + buffer`` covers values *and* layout in
    one pass over contiguous memory.
    """
    import hashlib

    h = hashlib.blake2b(digest_size=16)
    h.update(kind.encode("ascii"))
    h.update(np.ascontiguousarray(shape_meta, dtype=np.int64))
    h.update(header)
    h.update(np.ascontiguousarray(buffer))
    return h.digest()


class _CorruptBlob(Exception):
    """Internal: the blob exists but cannot be trusted."""


class PlanStore:
    """Content-addressed on-disk tier for compiled routing plans.

    Parameters
    ----------
    path:
        Store directory; created (with its schema pin) when absent.  A
        directory pinned to a different schema version raises
        :class:`~repro.exceptions.ConfigurationError` — blobs of one schema
        must never be decoded as another.
    max_bytes:
        Optional standing byte budget: after every write the store GCs
        oldest-first back under the budget.  ``None`` (default) means
        unbounded; explicit :meth:`gc` calls still work.
    """

    def __init__(self, path: str | os.PathLike, max_bytes: int | None = None):
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.path = Path(path)
        self.max_bytes = max_bytes
        self._objects = self.path / "objects"
        self._quarantine = self.path / "quarantine"
        self._stats_dir = self.path / "stats"
        for directory in (self._objects, self._quarantine, self._stats_dir):
            directory.mkdir(parents=True, exist_ok=True)
        self._pin_schema()
        # Per-instance counters (repro.obs metrics — the shared counting
        # model), mirrored to this instance's stats shard; the int-valued
        # properties below preserve the historical attribute reads.
        self._counters = {
            name: Counter(f"store_{name}")
            for name in ("disk_hits", "disk_misses", "writes", "quarantined")
        }
        self._shard_path = self._stats_dir / f"{os.getpid()}-{uuid.uuid4().hex}.json"

    @property
    def disk_hits(self) -> int:
        """Blobs this instance loaded successfully."""
        return self._counters["disk_hits"].value

    @property
    def disk_misses(self) -> int:
        """Probes this instance answered with a miss (absent or corrupt blob)."""
        return self._counters["disk_misses"].value

    @property
    def writes(self) -> int:
        """Blobs this instance persisted."""
        return self._counters["writes"].value

    @property
    def quarantined(self) -> int:
        """Corrupt blobs this instance moved to quarantine."""
        return self._counters["quarantined"].value

    # -- layout ------------------------------------------------------------

    def _pin_schema(self) -> None:
        pin = self.path / "store.json"
        try:
            recorded = json.loads(pin.read_text())
        except FileNotFoundError:
            self._atomic_write_text(
                pin, json.dumps({"schema": STORE_SCHEMA_VERSION}) + "\n"
            )
            return
        except (OSError, ValueError) as exc:
            raise ConfigurationError(
                f"unreadable plan-store schema pin {pin}: {exc}"
            ) from exc
        if recorded.get("schema") != STORE_SCHEMA_VERSION:
            raise ConfigurationError(
                f"plan store at {self.path} has schema "
                f"{recorded.get('schema')!r}, this build speaks "
                f"{STORE_SCHEMA_VERSION}; point --plan-store at a fresh "
                "directory (CI keys its cache on the schema version for "
                "exactly this reason)"
            )

    def _blob_path(self, digest: str) -> Path:
        return self._objects / digest[:2] / f"{digest}.npz"

    def _atomic_write_text(self, target: Path, text: str) -> None:
        tmp = target.with_name(f".{target.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
        tmp.write_text(text)
        os.replace(tmp, target)

    def _flush_counters(self) -> None:
        """Publish this instance's counters to its private stats shard.

        One shard per instance means concurrent processes never contend, so
        a plain overwrite suffices (this is the only writer of its shard and
        it sits on the disk-hit hot path); a reader catching the shard
        mid-write sees invalid JSON and skips it, the same as a shard that
        does not exist yet.  Summation happens at read time in :meth:`stats`.
        """
        payload = json.dumps(
            {
                "disk_hits": self.disk_hits,
                "disk_misses": self.disk_misses,
                "writes": self.writes,
                "quarantined": self.quarantined,
            }
        )
        try:
            self._shard_path.write_text(payload + "\n")
        except OSError:  # pragma: no cover - stats are best-effort
            pass

    # -- blob encoding ------------------------------------------------------

    def _pack(self, compiled: Any) -> dict[str, np.ndarray] | None:
        """Lower a compiled plan to the flat npz member mapping, or ``None``.

        ``None`` marks the object as not persistable: an unknown compiled
        type (plugin engines may cache their own artefacts in the same
        :class:`~repro.pops.engine.ScheduleCache`) or a packet universe
        carrying payloads.  The mapping holds five members — ``kind``,
        ``shape_meta``, ``header``, ``data``, ``checksum`` — with every
        field array concatenated into the single ``data`` buffer (see
        :func:`_pack_fields`); per-member zip overhead, not byte count, is
        what a disk hit pays for.
        """
        from repro.pops.engine import CompiledSchedule, CompiledScheduleBatch

        if isinstance(compiled, CompiledSchedule):
            packets = compiled.packets
            if isinstance(packets, LazyPackets):
                # Payload-free by construction: no packet objects to build.
                pk_source = np.asarray(packets.source, dtype=np.int64)
            elif any(p.payload is not None for p in packets):
                return None
            else:
                pk_source = np.fromiter(
                    (p.source for p in packets), dtype=np.int64, count=len(packets)
                )
            fields: dict[str, np.ndarray] = {
                name: np.asarray(getattr(compiled, name))
                for name in _SCHEDULE_FIELDS
            }
            fields["pk_source"] = pk_source
            names = list(_SCHEDULE_FIELDS) + ["pk_source"]
            kind = "schedule"
            shape_meta = np.array(
                [compiled.network.d, compiled.network.g, compiled.n_slots, 0],
                dtype=np.int64,
            )
            bcast: list[str] = []
        elif isinstance(compiled, CompiledScheduleBatch):
            fields = {}
            bcast = []
            for name in _SCHEDULE_FIELDS:
                arr = np.asarray(getattr(compiled, name))
                if (
                    name in _BATCH_PLANE_FIELDS
                    and arr.ndim == 2
                    and arr.shape[0] == compiled.n_batch
                    and arr.strides[0] == 0
                ):
                    # Broadcast plane: one distinct row carries everything.
                    fields[name] = np.ascontiguousarray(arr[0])
                    bcast.append(name)
                else:
                    fields[name] = arr
            names = list(_SCHEDULE_FIELDS)
            kind = "batch"
            shape_meta = np.array(
                [
                    compiled.network.d,
                    compiled.network.g,
                    compiled.n_slots,
                    compiled.n_batch,
                ],
                dtype=np.int64,
            )
        else:
            return None
        header, buffer = _pack_fields(names, fields)
        return {
            "kind": np.array(kind),
            "shape_meta": shape_meta,
            "bcast": np.array(sorted(bcast)),
            "header": np.frombuffer(header, dtype=np.uint8),
            "data": buffer,
            "checksum": np.frombuffer(
                _content_checksum(kind, shape_meta, header, buffer), dtype=np.uint8
            ),
        }

    def _unpack(self, data: Any) -> Any:
        """Rebuild the compiled plan from a loaded npz mapping.

        Raises :class:`_CorruptBlob` on any structural or checksum mismatch.
        Field arrays are aligned views into the blob's single ``data``
        buffer — no per-field copies on the load path.
        """
        from repro.pops.engine import CompiledSchedule, CompiledScheduleBatch

        try:
            kind = str(data["kind"][()])
            shape_meta = data["shape_meta"]
            d, g, n_slots, n_batch = (int(v) for v in shape_meta)
            header_bytes = data["header"].tobytes()
            buffer = data["data"]
            recorded = bytes(data["checksum"])
        except Exception as exc:
            raise _CorruptBlob(str(exc)) from exc
        if kind == "schedule":
            names = list(_SCHEDULE_FIELDS) + ["pk_source"]
        elif kind == "batch":
            names = list(_SCHEDULE_FIELDS)
        else:
            raise _CorruptBlob(f"unknown blob kind {kind!r}")
        if _content_checksum(kind, shape_meta, header_bytes, buffer) != recorded:
            raise _CorruptBlob("checksum mismatch")
        try:
            header = json.loads(header_bytes)
            arrays = {}
            for name, dtype_str, shape, offset, nbytes in header:
                arrays[name] = (
                    buffer[offset : offset + nbytes].view(dtype_str).reshape(shape)
                )
        except Exception as exc:
            raise _CorruptBlob(f"bad header: {exc}") from exc
        if sorted(arrays) != sorted(names):
            raise _CorruptBlob(f"fields {sorted(arrays)} != expected {sorted(names)}")
        network = POPSNetwork(d, g)
        if kind == "schedule":
            return CompiledSchedule(
                network=network,
                packets=LazyPackets(arrays["pk_source"], arrays["pk_destination"]),
                n_slots=n_slots,
                **{name: arrays[name] for name in _SCHEDULE_FIELDS},
            )
        bcast = {str(name) for name in data["bcast"]}
        fields = {}
        for name in _SCHEDULE_FIELDS:
            arr = arrays[name]
            if name in bcast:
                arr = np.broadcast_to(arr, (n_batch,) + arr.shape)
            fields[name] = arr
        return CompiledScheduleBatch(
            network=network, n_batch=n_batch, n_slots=n_slots, **fields
        )

    # -- store operations ---------------------------------------------------

    def get(self, key: Hashable) -> Any | None:
        """Load the plan stored under ``key``; ``None`` on any miss.

        A blob that exists but fails to open or checksum is quarantined and
        reported as a miss — the caller recompiles, the bad blob never
        crashes a run, and ``cache verify`` / the quarantine directory keep
        the evidence.
        """
        with get_tracer().span("store.probe") as probe:
            digest = plan_key_digest(key)
            if digest is None:
                return None
            blob = self._blob_path(digest)
            try:
                with np.load(blob, allow_pickle=False) as data:
                    compiled = self._unpack(data)
            except FileNotFoundError:
                self._counters["disk_misses"].inc()
                self._flush_counters()
                probe.annotate(hit=False)
                return None
            except (_CorruptBlob, OSError, ValueError, zipfile.BadZipFile, EOFError):
                self._quarantine_blob(blob)
                self._counters["disk_misses"].inc()
                self._flush_counters()
                probe.annotate(hit=False, quarantined=True)
                return None
            self._counters["disk_hits"].inc()
            self._flush_counters()
            probe.annotate(hit=True)
            return compiled

    def put(self, key: Hashable, compiled: Any) -> bool:
        """Persist ``compiled`` under ``key``; returns whether it was written.

        Not-persistable inputs (undigestible key, unknown compiled type,
        payload-carrying packets) are skipped silently — the memory tier
        still holds them, so behaviour without a store is preserved exactly.
        The write is atomic (temp file + ``os.replace``), making concurrent
        writers of one key last-writer-wins with no torn state.
        """
        digest = plan_key_digest(key)
        if digest is None:
            return False
        arrays = self._pack(compiled)
        if arrays is None:
            return False
        blob = self._blob_path(digest)
        blob.parent.mkdir(parents=True, exist_ok=True)
        tmp = blob.with_name(f".{blob.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
        try:
            with open(tmp, "wb") as fh:
                # Uncompressed: load latency is the whole point of the store,
                # and integer plan arrays are small next to a route + lower.
                np.savez(fh, **arrays)
            os.replace(tmp, blob)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        self._counters["writes"].inc()
        self._flush_counters()
        if self.max_bytes is not None:
            self.gc(self.max_bytes)
        return True

    def _quarantine_blob(self, blob: Path) -> None:
        target = self._quarantine / f"{blob.stem}.{uuid.uuid4().hex}.npz"
        try:
            os.replace(blob, target)
            self._counters["quarantined"].inc()
        except OSError:
            # Another process already moved or GC'd it; nothing to keep.
            pass

    def _iter_blobs(self) -> list[Path]:
        return [p for p in self._objects.glob("*/*.npz") if not p.name.startswith(".")]

    def gc(self, max_bytes: int) -> dict[str, int]:
        """Delete oldest blobs (by mtime) until the store fits ``max_bytes``.

        Concurrent readers are safe: deletion of an open-or-about-to-be-read
        blob surfaces to them as an ordinary miss (``FileNotFoundError`` is
        a miss path in :meth:`get`).  Returns ``{"removed", "freed_bytes",
        "kept", "kept_bytes"}``.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = []
        for blob in self._iter_blobs():
            try:
                stat = blob.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime_ns, stat.st_size, blob))
        entries.sort()
        total = sum(size for _, size, _ in entries)
        removed = freed = 0
        for _, size, blob in entries:
            if total <= max_bytes:
                break
            try:
                os.unlink(blob)
            except OSError:
                continue
            total -= size
            removed += 1
            freed += size
        return {
            "removed": removed,
            "freed_bytes": freed,
            "kept": len(entries) - removed,
            "kept_bytes": total,
        }

    def verify(self) -> dict[str, int]:
        """Open and checksum every blob, quarantining the corrupt ones.

        Returns ``{"checked", "ok", "quarantined"}``.  A clean store is the
        postcondition: every surviving blob loaded and checksummed.
        """
        checked = ok = bad = 0
        for blob in self._iter_blobs():
            checked += 1
            try:
                with np.load(blob, allow_pickle=False) as data:
                    self._unpack(data)
            except FileNotFoundError:
                checked -= 1  # raced with GC; not this store's problem
            except (_CorruptBlob, OSError, ValueError, zipfile.BadZipFile, EOFError):
                self._quarantine_blob(blob)
                bad += 1
            else:
                ok += 1
        if bad:
            self._flush_counters()
        return {"checked": checked, "ok": ok, "quarantined": bad}

    def stats(self) -> dict[str, Any]:
        """Store-wide statistics: disk scan + counters summed over all shards.

        The counter section aggregates every process that ever touched this
        store directory (each wrote its own ``stats/`` shard), which is what
        lets a *later* ``pops-repro cache stats`` invocation observe the disk
        hits a sweep's pool workers recorded.
        """
        entries = 0
        total_bytes = 0
        for blob in self._iter_blobs():
            try:
                total_bytes += blob.stat().st_size
            except OSError:
                continue
            entries += 1
        counters = {"disk_hits": 0, "disk_misses": 0, "writes": 0, "quarantined": 0}
        for shard in self._stats_dir.glob("*.json"):
            try:
                recorded = json.loads(shard.read_text())
            except (OSError, ValueError):
                continue
            for name in counters:
                value = recorded.get(name, 0)
                if isinstance(value, int):
                    counters[name] += value
        return {
            "path": str(self.path),
            "schema": STORE_SCHEMA_VERSION,
            "entries": entries,
            "total_bytes": total_bytes,
            "quarantine_entries": sum(1 for _ in self._quarantine.glob("*.npz")),
            **counters,
        }

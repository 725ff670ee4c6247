"""Shared-memory SPSC ring transport for the multiprocess runtimes.

The queue transport (``multiprocessing.Queue``) costs roughly five
copies and two codec passes per hop: the sender marshals the batch,
the queue's feeder thread *re-pickles* the message, the bytes cross a
pipe (kernel write + read), and the receiver unpickles before it can
even reach the marshal payload.  This module replaces the data plane
with flat, offset-indexed frames written directly into a
``multiprocessing.shared_memory`` segment organised as a single
producer / single consumer byte ring:

* the sender encodes the struct-of-arrays wire batch into *parts*
  (one marshal blob per column, the ``kinds`` bytestring raw) and
  memcpys them into the ring — one copy, one codec pass;
* the receiver decodes each column with ``marshal.loads`` on a
  borrowed ``memoryview`` slice of the ring — zero intermediate
  ``bytes`` objects — and the ``kinds`` column is handed out as a
  borrowed view outright, so ``TaggedBatchView``-style sweeps iterate
  shared memory in place.

Ring protocol
-------------

The segment layout is a 24-byte little-endian header followed by
``capacity`` data bytes::

    [ write cursor : u64 ][ read cursor : u64 ][ wraps : u64 ][ data ... ]

Cursors are *monotonic byte counts*; the slot of a cursor ``c`` is
``c % capacity`` and the occupancy is ``write - read``.  Each side
writes only its own cursor and the stores are 8-byte aligned, which
CPython serialises under the GIL per process and the hardware keeps
atomic across processes — no locks.  Backpressure is cursor distance:
``try_put`` refuses (returns ``False``) while the frame does not fit
into ``capacity - occupancy``, which is exactly the bounded-queue
semantics the drivers already build their pumping loops around.

Frames never span the wrap point.  When the tail residue is too small
for the next frame the producer publishes a *wrap marker* (a u32
``0xFFFFFFFF`` length, or nothing at all when fewer than four bytes
remain — the consumer skips an unreadable residue implicitly), bumps
the ``wraps`` counter and restarts at slot zero; the skipped bytes
count toward both cursors so the free-space arithmetic stays exact.
The wrap is published as soon as the residue is free, ahead of the
frame: a frame longer than the slot it wraps from cannot fit together
with its residue even into an empty ring, only after the consumer has
skipped the tail.

Frame layout after the u32 length prefix::

    [ codec : u8 ][ nparts : u8 ][ part length : u32 ] * nparts [ parts ... ]

Codecs mirror the queue transport's ``_pack``/``_unpack`` pair:

``F``
    flat columnar batch — part 0 is ``marshal(header)``, part 1 the
    raw ``kinds`` bytes, parts 2.. one ``marshal(column)`` each.
``H``
    header-only frame (``marshal(header)``) — control-shaped payloads
    such as the ingest tier's ``(watermark, wires)`` feed frames.
``P``
    ``pickle((header, batch))`` — the fallback when marshal rejects a
    value, byte-for-byte the same policy as ``_pack``'s ``("p", ...)``.

Fault seams (deterministic chaos, see :mod:`repro.pipeline.faults`):
``try_put(..., fault="torn")`` zero-fills the payload *after* the
header part before publishing (the consumer can still attribute the
frame to a sequence number, but every column decode fails), and
``fault="stale"`` writes the frame without ever advancing the write
cursor — the frame is silently lost, which is what a crashed producer
mid-publish looks like.
"""

from __future__ import annotations

import marshal
import pickle
import struct
import time
from multiprocessing import shared_memory
from typing import Any

#: Default data capacity of one ring segment.  16 MiB holds several
#: thousand typical wire batches and still fits one frame of a
#: pathological batch (communities-heavy announcements run to a few
#: KiB per element); the drivers' pump-while-full loops make the exact
#: figure a latency knob, not a correctness one.
DEFAULT_RING_BYTES = 16 << 20

#: Sleep between attempts in the blocking helpers.  The rings are
#: polled (no futex); a short sleep keeps a starved side from spinning
#: a whole core on the single-core containers the tests run on.
RING_POLL_S = 0.0002

_HEADER_BYTES = 24
_WRAP_MARKER = 0xFFFFFFFF
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

_CODEC_FLAT = ord("F")
_CODEC_HEADER = ord("H")
_CODEC_PICKLE = ord("P")


def encode_frame(header: Any, batch: tuple | None) -> tuple[int, list]:
    """Split ``(header, batch)`` into ``(codec, parts)`` for the ring.

    Marshal-first with a pickle fallback, mirroring the queue
    transport's ``_pack`` so both transports quarantine and replay the
    same payloads under the same faults.
    """
    try:
        head = marshal.dumps(header)
        if batch is None:
            return _CODEC_HEADER, [head]
        kinds = batch[0]
        if not isinstance(kinds, (bytes, bytearray)):
            kinds = bytes(kinds)
        parts = [head, kinds]
        for column in batch[1:]:
            parts.append(marshal.dumps(column))
        return _CODEC_FLAT, parts
    except ValueError:
        return _CODEC_PICKLE, [pickle.dumps((header, batch))]


class Frame:
    """One readable frame borrowed from a :class:`ShmRing`.

    The frame owns ``memoryview`` slices into the ring until
    :meth:`release` — decode what you need, then release so the
    producer can reuse the bytes.  Exactly one frame is outstanding
    per ring at a time (SPSC).
    """

    __slots__ = ("_ring", "_start", "_length", "advance", "codec", "_spans",
                 "_borrowed", "_cached", "_released")

    def __init__(self, ring: "ShmRing", start: int, length: int,
                 advance: int) -> None:
        self._ring = ring
        self._start = start
        self._length = length
        #: bytes the read cursor moves past on release (prefix + frame).
        self.advance = advance
        self._borrowed: list[memoryview] = []
        self._cached: tuple | None = None
        self._released = False
        buf = ring._buf
        self.codec = buf[start]
        nparts = buf[start + 1]
        offset = start + 2 + 4 * nparts
        spans = []
        for index in range(nparts):
            size = _U32.unpack_from(buf, start + 2 + 4 * index)[0]
            spans.append((offset, size))
            offset += size
        if offset - start != length:
            raise ValueError(
                "shm frame part index disagrees with the frame length "
                f"({offset - start} != {length}) — torn or corrupt frame"
            )
        self._spans = spans

    def raw(self) -> bytes:
        """Copy of the full frame payload (for quarantine signatures)."""
        return bytes(self._ring._buf[self._start:self._start + self._length])

    def _part(self, index: int) -> memoryview:
        start, size = self._spans[index]
        return memoryview(self._ring._buf)[start:start + size]

    def header(self) -> Any:
        """Decode and return the frame header."""
        if self.codec == _CODEC_PICKLE:
            if self._cached is None:
                view = self._part(0)
                try:
                    self._cached = pickle.loads(view)
                finally:
                    view.release()
            return self._cached[0]
        view = self._part(0)
        try:
            return marshal.loads(view)
        finally:
            view.release()

    def batch(self, copy_kinds: bool = False) -> tuple | None:
        """Decode the batch columns from the ring in place.

        With ``copy_kinds=False`` the ``kinds`` column is a *borrowed*
        ``memoryview`` — valid only until :meth:`release`; pass
        ``copy_kinds=True`` when the batch outlives the frame (the
        drivers' reorder stash does).
        """
        if self.codec == _CODEC_HEADER:
            return None
        if self.codec == _CODEC_PICKLE:
            self.header()  # populate the cache
            return self._cached[1]
        kinds_view = self._part(1)
        if copy_kinds:
            kinds: Any = bytes(kinds_view)
            kinds_view.release()
        else:
            kinds = kinds_view
            self._borrowed.append(kinds_view)
        columns = [kinds]
        for index in range(2, len(self._spans)):
            view = self._part(index)
            try:
                columns.append(marshal.loads(view))
            finally:
                view.release()
        return tuple(columns)

    def release(self) -> None:
        """Drop borrowed views and advance the ring past this frame."""
        if self._released:
            return
        self._released = True
        for view in self._borrowed:
            view.release()
        self._borrowed = []
        self._ring._release(self)


class ShmRing:
    """SPSC byte ring over one ``multiprocessing.shared_memory`` segment.

    Create the ring in the driver *before* forking; with the ``fork``
    start method the children inherit the mapping, so the object is
    never pickled and the default ``psm_*`` segment name is kept (the
    CI leak check greps for it).  Only :meth:`destroy` unlinks the
    segment — every driver close path must reach it (see
    ``reap_workers(rings=...)``).
    """

    def __init__(self, capacity: int = DEFAULT_RING_BYTES) -> None:
        if capacity < 1024:
            raise ValueError("shm ring capacity must be at least 1 KiB")
        self.capacity = capacity
        self.shm = shared_memory.SharedMemory(
            create=True, size=_HEADER_BYTES + capacity
        )
        self._buf = self.shm.buf
        self._buf[:_HEADER_BYTES] = b"\x00" * _HEADER_BYTES
        #: endpoint-local producer stall counter (the driver sums its
        #: rings' for the ``ring_send_stalls`` gauge).
        self.put_stalls = 0
        self._frame: Frame | None = None
        self._closed = False

    @property
    def name(self) -> str:
        return self.shm.name

    # -- header accessors ------------------------------------------------
    def _write_cursor(self) -> int:
        return _U64.unpack_from(self._buf, 0)[0]

    def _read_cursor(self) -> int:
        return _U64.unpack_from(self._buf, 8)[0]

    def occupancy(self) -> int:
        """Bytes currently between the cursors (backpressure signal)."""
        if self._closed:  # gauges may sample after teardown
            return 0
        return self._write_cursor() - self._read_cursor()

    def wraps(self) -> int:
        """How many times the producer wrapped to slot zero."""
        if self._closed:
            return 0
        return _U64.unpack_from(self._buf, 16)[0]

    # -- producer --------------------------------------------------------
    def _encode(self, header: Any, batch: tuple | None) -> tuple[int, list, int]:
        """``(codec, parts, payload bytes)`` of one frame, size-checked."""
        codec, parts = encode_frame(header, batch)
        payload = 2 + 4 * len(parts) + sum(len(part) for part in parts)
        if 4 + payload > self.capacity - 8:
            raise ValueError(
                f"wire frame of {4 + payload} bytes cannot fit a "
                f"{self.capacity}-byte ring even when empty — lower "
                "process_batch (or feed batch_size) below the ring size"
            )
        return codec, parts, payload

    def try_put(self, header: Any, batch: tuple | None = None,
                fault: str | None = None) -> bool:
        """Encode and publish one frame; ``False`` when it does not fit."""
        return self._publish(*self._encode(header, batch), fault)

    def _publish(self, codec: int, parts: list, payload: int,
                 fault: str | None) -> bool:
        total = 4 + payload
        write = self._write_cursor()
        read = self._read_cursor()
        free = self.capacity - (write - read)
        slot = write % self.capacity
        buf = self._buf
        if slot + total > self.capacity:
            # Wrap first, as a publish of its own: a frame longer than
            # the slot never sees ``skip + total`` free bytes, even on
            # an empty ring, but once the consumer has skipped the tail
            # the frame lands at slot zero.
            skip = self.capacity - slot
            if skip > free:
                return False
            if skip >= 4:
                _U32.pack_into(buf, _HEADER_BYTES + slot, _WRAP_MARKER)
            _U64.pack_into(buf, 16, self.wraps() + 1)
            write += skip
            _U64.pack_into(buf, 0, write)
            free -= skip
            slot = 0
        if total > free:
            return False
        base = _HEADER_BYTES + slot
        _U32.pack_into(buf, base, payload)
        offset = base + 4
        buf[offset] = codec
        buf[offset + 1] = len(parts)
        offset += 2
        for part in parts:
            _U32.pack_into(buf, offset, len(part))
            offset += 4
        data_start = offset
        for part in parts:
            buf[offset:offset + len(part)] = part
            offset += len(part)
        if fault == "torn":
            # Zero everything after the header part: the consumer can
            # still read the sequence header, but every column decode
            # fails deterministically (marshal rejects \x00 garbage).
            torn_from = data_start + len(parts[0])
            if torn_from >= offset:  # header-only frame: tear it whole
                torn_from = data_start
            buf[torn_from:offset] = b"\x00" * (offset - torn_from)
        if fault == "stale":
            # Bytes written, cursor never published: the frame is lost
            # exactly as if the producer died mid-publish.
            return True
        _U64.pack_into(buf, 0, write + total)
        return True

    def put(self, header: Any, batch: tuple | None = None,
            fault: str | None = None) -> None:
        """Blocking :meth:`try_put`; sleep-polls and counts stalls."""
        frame = self._encode(header, batch)
        while not self._publish(*frame, fault):
            self.put_stalls += 1
            time.sleep(RING_POLL_S)

    # -- consumer --------------------------------------------------------
    def get(self) -> Frame | None:
        """Borrow the next frame, or ``None`` when the ring is empty."""
        if self._frame is not None:
            raise RuntimeError(
                "previous shm frame not released — SPSC rings hand out "
                "one frame at a time"
            )
        while True:
            write = self._write_cursor()
            read = self._read_cursor()
            if write == read:
                return None
            slot = read % self.capacity
            residue = self.capacity - slot
            if residue < 4:
                _U64.pack_into(self._buf, 8, read + residue)
                continue
            length = _U32.unpack_from(self._buf, _HEADER_BYTES + slot)[0]
            if length == _WRAP_MARKER:
                _U64.pack_into(self._buf, 8, read + residue)
                continue
            frame = Frame(
                self, _HEADER_BYTES + slot + 4, length, advance=4 + length
            )
            self._frame = frame
            return frame

    def _release(self, frame: Frame) -> None:
        if self._frame is frame:
            _U64.pack_into(self._buf, 8, self._read_cursor() + frame.advance)
            self._frame = None

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Detach this process from the segment (keeps it linked)."""
        if self._closed:
            return
        self._closed = True
        frame = self._frame
        if frame is not None:
            for view in frame._borrowed:
                view.release()
            frame._borrowed = []
            frame._released = True
            self._frame = None
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - stray exported view
            pass

    def destroy(self) -> None:
        """Detach *and* unlink the segment; idempotent.

        Safe to call while workers are still attached (POSIX unlink
        removes the name, mappings stay valid until every side closes)
        and after another process already unlinked it.
        """
        self.close()
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass

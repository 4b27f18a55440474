"""Versioned, chunked on-disk trace format with a streaming reader.

A recorded trace is a single file (conventional suffix ``.rtr``) laid
out as a magic string followed by *frames*.  Every frame is a 4-byte
little-endian length, a JSON metadata blob of that length, and an
optional binary payload whose size the metadata declares::

    MAGIC ("RTRC0001")
    [u32 len][header JSON]                      kind == "header"
    [u32 len][chunk  JSON][payload bytes]       kind == "chunk"   (0..N)
    ...
    [u32 len][end    JSON]                      kind == "end"
    [u64 end-frame offset]["RTRCEND1"]          fixed 16-byte trailer

Chunk payloads are fixed-dtype numpy record arrays (``pc`` int64,
``daddr`` int64 with ``-1`` meaning "no data access", ``kind`` uint8 —
the same column contract as :class:`repro.cpu.trace.TraceChunk`),
optionally compressed.  Each chunk frame carries the SHA-256 of its
*uncompressed* payload so corruption is detected per chunk, and the end
frame carries a running SHA-256 over all uncompressed chunk payloads in
order — a codec- and chunking-independent identity for the trace
content.  The fixed trailer lets :meth:`TraceRecording.info` seek
straight to the end frame without scanning the file.

The reader is streaming: :meth:`TraceRecording.chunks` decodes one
chunk at a time, so peak memory is bounded by the chunk size no matter
how large the trace file is.  :meth:`TraceRecording.window_chunks`
additionally *seeks over* chunks that do not overlap the requested
SimPoint window instead of decoding them.

Compression codecs: ``none``, ``gzip`` (zlib, always available) and
``zstd`` when the :mod:`zstandard` package is importable — the codec
registry is probed at import time so a file recorded with zstd on one
host fails with a clear error, not an ImportError, on a host without it.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..cpu.trace import TraceChunk, merge_chunks
from ..errors import ConfigurationError, TraceError, TraceFormatError

MAGIC = b"RTRC0001"
END_MAGIC = b"RTRCEND1"
FORMAT_VERSION = 1
TRACE_SUFFIX = ".rtr"
DEFAULT_CHUNK_INSTRUCTIONS = 65_536
DEFAULT_CODEC = "gzip"

#: Record layout of one access in a chunk payload (17 bytes/access).
RECORD_DTYPE = np.dtype([("pc", "<i8"), ("daddr", "<i8"), ("kind", "u1")])

_COLUMNS = [["pc", "<i8"], ["daddr", "<i8"], ["kind", "|u1"]]

_LEN_STRUCT = struct.Struct("<I")
_TRAILER_STRUCT = struct.Struct("<Q8s")
_MAX_META_BYTES = 1 << 20  # sanity bound on a metadata frame

def _zstd_codec() -> Optional[Tuple[Callable[[bytes], bytes], Callable[[bytes], bytes]]]:
    try:
        import zstandard
    except ImportError:
        return None
    return (
        lambda raw: zstandard.ZstdCompressor().compress(raw),
        lambda buf: zstandard.ZstdDecompressor().decompress(buf),
    )


def _build_codecs() -> Dict[str, Tuple[Callable[[bytes], bytes], Callable[[bytes], bytes]]]:
    codecs: Dict[str, Tuple[Callable[[bytes], bytes], Callable[[bytes], bytes]]] = {
        "none": (lambda raw: raw, lambda buf: buf),
        "gzip": (lambda raw: zlib.compress(raw, 6), zlib.decompress),
    }
    zstd = _zstd_codec()
    if zstd is not None:
        codecs["zstd"] = zstd
    return codecs


_CODECS = _build_codecs()


def available_codecs() -> Tuple[str, ...]:
    """Names of the compression codecs usable on this host."""

    return tuple(sorted(_CODECS))


def _codec_for(name: str) -> Tuple[Callable[[bytes], bytes], Callable[[bytes], bytes]]:
    try:
        return _CODECS[name]
    except KeyError:
        hint = "" if name != "zstd" else " (zstd needs the optional 'zstandard' package)"
        raise ConfigurationError(
            f"unknown trace codec {name!r}; available on this host: "
            f"{list(available_codecs())}{hint}"
        ) from None


@dataclass(frozen=True)
class TraceInfo:
    """Summary of a recorded trace, derived from its header and end frames."""

    path: str
    version: int
    codec: str
    chunk_instructions: int
    chunks: int
    instructions: int
    digest: str
    provenance: Optional[Dict[str, Any]]
    file_bytes: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "version": self.version,
            "codec": self.codec,
            "chunk_instructions": self.chunk_instructions,
            "chunks": self.chunks,
            "instructions": self.instructions,
            "digest": self.digest,
            "provenance": self.provenance,
            "file_bytes": self.file_bytes,
        }


def _write_frame(fh: BinaryIO, meta: Dict[str, Any], payload: bytes = b"") -> None:
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    fh.write(_LEN_STRUCT.pack(len(blob)))
    fh.write(blob)
    if payload:
        fh.write(payload)


def _read_frame_meta(fh: BinaryIO, path: Path, context: str) -> Dict[str, Any]:
    head = fh.read(_LEN_STRUCT.size)
    if len(head) != _LEN_STRUCT.size:
        raise TraceFormatError(f"{path}: truncated while reading {context} frame length")
    (length,) = _LEN_STRUCT.unpack(head)
    if length == 0 or length > _MAX_META_BYTES:
        raise TraceFormatError(f"{path}: implausible {context} frame length {length}")
    blob = fh.read(length)
    if len(blob) != length:
        raise TraceFormatError(f"{path}: truncated while reading {context} frame metadata")
    try:
        meta = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise TraceFormatError(f"{path}: corrupt {context} frame metadata: {error}") from None
    if not isinstance(meta, dict) or "kind" not in meta:
        raise TraceFormatError(f"{path}: malformed {context} frame metadata")
    return meta


def _encode_chunk(chunk: TraceChunk) -> bytes:
    rec = np.empty(len(chunk), dtype=RECORD_DTYPE)
    rec["pc"] = chunk.pcs
    rec["daddr"] = chunk.data_addresses
    rec["kind"] = chunk.data_kinds
    return rec.tobytes()


def _decode_chunk(raw: bytes, path: Path, index: int) -> TraceChunk:
    if len(raw) % RECORD_DTYPE.itemsize:
        raise TraceFormatError(
            f"{path}: chunk {index} payload is {len(raw)} bytes, not a multiple of "
            f"the {RECORD_DTYPE.itemsize}-byte record size"
        )
    rec = np.frombuffer(raw, dtype=RECORD_DTYPE)
    try:
        return TraceChunk(
            np.ascontiguousarray(rec["pc"], dtype=np.int64),
            np.ascontiguousarray(rec["daddr"], dtype=np.int64),
            np.ascontiguousarray(rec["kind"], dtype=np.uint8),
        )
    except TraceError as error:
        raise TraceFormatError(f"{path}: chunk {index} holds invalid accesses: {error}") from None


class TraceWriter:
    """Stream trace chunks to disk in the native recorded format.

    The writer re-chunks its input: appended chunks are buffered and
    emitted as exact ``chunk_instructions``-sized chunks (the final
    chunk may be shorter), so the on-disk chunking — and therefore the
    window addressing used by SimPoint estimation — is independent of
    how the producer happened to batch its accesses.  Output goes to a
    temporary file in the destination directory and is atomically
    renamed into place on :meth:`close`; an aborted writer leaves
    nothing behind.
    """

    def __init__(
        self,
        path: Path | str,
        *,
        codec: str = DEFAULT_CODEC,
        chunk_instructions: int = DEFAULT_CHUNK_INSTRUCTIONS,
        provenance: Optional[Dict[str, Any]] = None,
    ) -> None:
        if chunk_instructions <= 0:
            raise ConfigurationError(
                f"chunk_instructions must be positive, got {chunk_instructions}"
            )
        self._compress, _ = _codec_for(codec)
        self._codec = codec
        self._chunk_instructions = int(chunk_instructions)
        self._provenance = dict(provenance) if provenance is not None else None
        self._final_path = Path(path)
        self._final_path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=str(self._final_path.parent),
            prefix=f".{self._final_path.name}.",
            suffix=".tmp",
        )
        self._tmp_path = Path(tmp)
        self._fh: Optional[BinaryIO] = os.fdopen(fd, "wb")
        self._pending: List[TraceChunk] = []
        self._buffered = 0
        self._chunks = 0
        self._instructions = 0
        self._digest = hashlib.sha256()
        self._fh.write(MAGIC)
        _write_frame(
            self._fh,
            {
                "kind": "header",
                "version": FORMAT_VERSION,
                "codec": self._codec,
                "chunk_instructions": self._chunk_instructions,
                "columns": _COLUMNS,
                "provenance": self._provenance,
            },
        )

    @property
    def path(self) -> Path:
        return self._final_path

    def append(self, chunk: TraceChunk) -> None:
        if self._fh is None:
            raise TraceError(f"trace writer for {self._final_path} is already closed")
        if len(chunk) == 0:
            return
        self._pending.append(chunk)
        self._buffered += len(chunk)
        while self._buffered >= self._chunk_instructions:
            merged = merge_chunks(self._pending)
            self._emit(merged.slice(0, self._chunk_instructions))
            rest = merged.slice(self._chunk_instructions, len(merged))
            self._pending = [rest] if len(rest) else []
            self._buffered = len(rest)

    def extend(self, chunks: Iterable[TraceChunk]) -> None:
        for chunk in chunks:
            self.append(chunk)

    def _emit(self, chunk: TraceChunk) -> None:
        assert self._fh is not None
        raw = _encode_chunk(chunk)
        self._digest.update(raw)
        payload = self._compress(raw)
        _write_frame(
            self._fh,
            {
                "kind": "chunk",
                "index": self._chunks,
                "instructions": len(chunk),
                "payload_bytes": len(payload),
                "sha256": hashlib.sha256(raw).hexdigest(),
            },
            payload,
        )
        self._chunks += 1
        self._instructions += len(chunk)

    def close(self) -> TraceInfo:
        """Flush buffered accesses, seal the file and rename it into place."""

        if self._fh is None:
            raise TraceError(f"trace writer for {self._final_path} is already closed")
        if self._pending:
            self._emit(merge_chunks(self._pending))
            self._pending = []
            self._buffered = 0
        fh = self._fh
        end_offset = fh.tell()
        digest = self._digest.hexdigest()
        _write_frame(
            fh,
            {
                "kind": "end",
                "chunks": self._chunks,
                "instructions": self._instructions,
                "digest": digest,
            },
        )
        fh.write(_TRAILER_STRUCT.pack(end_offset, END_MAGIC))
        fh.flush()
        os.fsync(fh.fileno())
        fh.close()
        self._fh = None
        os.replace(self._tmp_path, self._final_path)
        return TraceInfo(
            path=str(self._final_path),
            version=FORMAT_VERSION,
            codec=self._codec,
            chunk_instructions=self._chunk_instructions,
            chunks=self._chunks,
            instructions=self._instructions,
            digest=digest,
            provenance=self._provenance,
            file_bytes=self._final_path.stat().st_size,
        )

    def abort(self) -> None:
        """Discard the partially written file."""

        if self._fh is not None:
            self._fh.close()
            self._fh = None
        try:
            self._tmp_path.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is None:
            if self._fh is not None:
                self.close()
        else:
            self.abort()


class TraceRecording:
    """Streaming reader for a recorded trace file."""

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        if not self.path.is_file():
            raise TraceError(f"trace file {self.path} does not exist")
        with self.path.open("rb") as fh:
            self._header = self._read_header(fh)
        self._decompress = _codec_for(self._header["codec"])[1]

    def _read_header(self, fh: BinaryIO) -> Dict[str, Any]:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise TraceFormatError(
                f"{self.path}: not a recorded trace (bad magic {magic!r}; expected {MAGIC!r})"
            )
        meta = _read_frame_meta(fh, self.path, "header")
        if meta.get("kind") != "header":
            raise TraceFormatError(f"{self.path}: first frame is {meta.get('kind')!r}, not header")
        version = meta.get("version")
        if version != FORMAT_VERSION:
            raise TraceFormatError(
                f"{self.path}: unsupported trace format version {version!r} "
                f"(this reader supports {FORMAT_VERSION})"
            )
        if meta.get("columns") != _COLUMNS:
            raise TraceFormatError(
                f"{self.path}: unexpected column layout {meta.get('columns')!r}"
            )
        codec = meta.get("codec")
        if not isinstance(codec, str):
            raise TraceFormatError(f"{self.path}: header has no codec")
        _codec_for(codec)  # raises ConfigurationError if unusable on this host
        chunk_instructions = meta.get("chunk_instructions")
        if not isinstance(chunk_instructions, int) or chunk_instructions <= 0:
            raise TraceFormatError(
                f"{self.path}: invalid chunk_instructions {chunk_instructions!r}"
            )
        return meta

    @property
    def codec(self) -> str:
        return str(self._header["codec"])

    @property
    def chunk_instructions(self) -> int:
        return int(self._header["chunk_instructions"])

    @property
    def provenance(self) -> Optional[Dict[str, Any]]:
        provenance = self._header.get("provenance")
        return dict(provenance) if isinstance(provenance, dict) else None

    def info(self) -> TraceInfo:
        """Read the trace summary via the fixed trailer (no chunk scan)."""

        size = self.path.stat().st_size
        if size < len(MAGIC) + _TRAILER_STRUCT.size:
            raise TraceFormatError(f"{self.path}: file too short to hold a trailer")
        with self.path.open("rb") as fh:
            fh.seek(size - _TRAILER_STRUCT.size)
            end_offset, end_magic = _TRAILER_STRUCT.unpack(fh.read(_TRAILER_STRUCT.size))
            if end_magic != END_MAGIC:
                raise TraceFormatError(
                    f"{self.path}: missing end trailer (file truncated or not sealed)"
                )
            if end_offset >= size:
                raise TraceFormatError(f"{self.path}: trailer points past end of file")
            fh.seek(end_offset)
            end = _read_frame_meta(fh, self.path, "end")
        if end.get("kind") != "end":
            raise TraceFormatError(
                f"{self.path}: trailer does not point at an end frame (got {end.get('kind')!r})"
            )
        return TraceInfo(
            path=str(self.path),
            version=int(self._header["version"]),
            codec=self.codec,
            chunk_instructions=self.chunk_instructions,
            chunks=int(end["chunks"]),
            instructions=int(end["instructions"]),
            digest=str(end["digest"]),
            provenance=self.provenance,
            file_bytes=size,
        )

    def _read_payload(self, fh: BinaryIO, meta: Dict[str, Any], index: int) -> bytes:
        declared = meta.get("payload_bytes")
        if not isinstance(declared, int) or declared < 0:
            raise TraceFormatError(f"{self.path}: chunk {index} declares no payload size")
        payload = fh.read(declared)
        if len(payload) != declared:
            raise TraceFormatError(
                f"{self.path}: chunk {index} truncated "
                f"(expected {declared} payload bytes, got {len(payload)})"
            )
        try:
            raw = self._decompress(payload)
        except Exception as error:  # zlib.error / zstd errors
            raise TraceFormatError(
                f"{self.path}: chunk {index} failed to decompress ({error}); "
                "the file is corrupt"
            ) from None
        if hashlib.sha256(raw).hexdigest() != meta.get("sha256"):
            raise TraceFormatError(
                f"{self.path}: chunk {index} checksum mismatch; the file is corrupt"
            )
        expected = meta.get("instructions")
        if isinstance(expected, int) and len(raw) != expected * RECORD_DTYPE.itemsize:
            raise TraceFormatError(
                f"{self.path}: chunk {index} holds {len(raw) // RECORD_DTYPE.itemsize} "
                f"accesses but declares {expected}"
            )
        return raw

    def chunks(self) -> Iterator[TraceChunk]:
        """Yield the trace's chunks in order, verifying every checksum.

        Peak memory is bounded by one chunk: each payload is read,
        verified and decoded only when the consumer advances the
        generator.  The running whole-trace digest is checked against
        the end frame, so a fully consumed stream is guaranteed intact.
        """

        with self.path.open("rb") as fh:
            fh.seek(len(MAGIC))
            _read_frame_meta(fh, self.path, "header")
            running = hashlib.sha256()
            index = 0
            while True:
                meta = _read_frame_meta(fh, self.path, f"chunk {index}")
                kind = meta.get("kind")
                if kind == "end":
                    if meta.get("chunks") != index:
                        raise TraceFormatError(
                            f"{self.path}: end frame declares {meta.get('chunks')} chunks "
                            f"but {index} were read"
                        )
                    if meta.get("digest") != running.hexdigest():
                        raise TraceFormatError(
                            f"{self.path}: whole-trace digest mismatch; the file is corrupt"
                        )
                    return
                if kind != "chunk":
                    raise TraceFormatError(f"{self.path}: unexpected frame kind {kind!r}")
                if meta.get("index") != index:
                    raise TraceFormatError(
                        f"{self.path}: chunk frames out of order "
                        f"(expected index {index}, found {meta.get('index')!r})"
                    )
                raw = self._read_payload(fh, meta, index)
                running.update(raw)
                yield _decode_chunk(raw, self.path, index)
                index += 1

    def window_chunks(self, window: int, window_instructions: int) -> Iterator[TraceChunk]:
        """Yield only the accesses of one SimPoint window, seeking past the rest.

        ``window`` is a 0-based index of a ``window_instructions``-sized
        region, the same addressing :func:`repro.simpoint.window_slice`
        uses.  Chunk payloads that do not overlap the window are skipped
        with ``seek`` — they are neither decompressed nor checksummed —
        so extracting one region of a huge trace touches O(window) data.
        """

        if window < 0:
            raise ConfigurationError(f"window must be non-negative, got {window}")
        if window_instructions <= 0:
            raise ConfigurationError(
                f"window_instructions must be positive, got {window_instructions}"
            )
        start = window * window_instructions
        stop = start + window_instructions
        yielded = False
        with self.path.open("rb") as fh:
            fh.seek(len(MAGIC))
            _read_frame_meta(fh, self.path, "header")
            position = 0
            index = 0
            while position < stop:
                meta = _read_frame_meta(fh, self.path, f"chunk {index}")
                kind = meta.get("kind")
                if kind == "end":
                    break
                if kind != "chunk":
                    raise TraceFormatError(f"{self.path}: unexpected frame kind {kind!r}")
                count = meta.get("instructions")
                declared = meta.get("payload_bytes")
                if not isinstance(count, int) or not isinstance(declared, int):
                    raise TraceFormatError(f"{self.path}: chunk {index} metadata incomplete")
                chunk_start, chunk_stop = position, position + count
                if chunk_stop <= start:
                    fh.seek(declared, os.SEEK_CUR)
                else:
                    raw = self._read_payload(fh, meta, index)
                    chunk = _decode_chunk(raw, self.path, index)
                    lo = max(start, chunk_start) - chunk_start
                    hi = min(stop, chunk_stop) - chunk_start
                    part = chunk.slice(lo, hi)
                    if len(part):
                        yield part
                        yielded = True
                position = chunk_stop
                index += 1
        if not yielded:
            raise ConfigurationError(
                f"window {window} (instructions {start}..{stop}) lies beyond the end "
                f"of trace {self.path}"
            )

    def validate(self) -> TraceInfo:
        """Walk the whole file verifying every checksum and the trailer."""

        info = self.info()
        chunks = 0
        instructions = 0
        for chunk in self.chunks():
            chunks += 1
            instructions += len(chunk)
        if chunks != info.chunks or instructions != info.instructions:
            raise TraceFormatError(
                f"{self.path}: end frame declares {info.chunks} chunks / "
                f"{info.instructions} instructions but the stream holds "
                f"{chunks} / {instructions}"
            )
        return info


def read_trace(path: Path | str) -> Iterator[TraceChunk]:
    """Convenience: stream a recorded trace's chunks."""

    return TraceRecording(path).chunks()


def record_chunks(
    chunks: Iterable[TraceChunk],
    path: Path | str,
    *,
    codec: str = DEFAULT_CODEC,
    chunk_instructions: int = DEFAULT_CHUNK_INSTRUCTIONS,
    provenance: Optional[Dict[str, Any]] = None,
) -> TraceInfo:
    """Record an iterable of trace chunks to ``path``, returning its info."""

    with TraceWriter(
        path, codec=codec, chunk_instructions=chunk_instructions, provenance=provenance
    ) as writer:
        writer.extend(chunks)
        return writer.close()


def record_benchmark(
    name: str,
    path: Path | str,
    *,
    scale: float = 1.0,
    codec: str = DEFAULT_CODEC,
    chunk_instructions: int = DEFAULT_CHUNK_INSTRUCTIONS,
) -> TraceInfo:
    """Record a synthetic benchmark workload to disk.

    The provenance (benchmark name + scale) is stored in the header, so
    the workload registry can give the recorded trace the *same content
    address* as the synthetic workload it captures — simulating the
    recorded file hits the same cache entries and coalesces with inline
    submissions of the original benchmark.
    """

    from ..workloads.benchmarks import make_benchmark

    workload = make_benchmark(name, scale=scale)
    return record_chunks(
        workload.chunks(),
        path,
        codec=codec,
        chunk_instructions=chunk_instructions,
        provenance={"benchmark": workload.name, "scale": float(scale)},
    )

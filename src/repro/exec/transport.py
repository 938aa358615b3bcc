"""The worker wire: how a scheduler launches and talks to its worker daemons.

The process backend (:class:`~repro.exec.backends.ProcessBackend`) runs
work on long-lived worker daemons.  This module owns the two pieces of that
story that are independent of *scheduling*:

* the **launcher** — :func:`spawn_worker` forks a daemon and connects it
  over a :func:`socket.socketpair`.  The task callable travels by **fork
  memory image** (closures over scenes, SDF lambdas and lazy textures all
  work), registered under a token in :data:`_IMAGE_TASKS` immediately
  before the fork; and
* the **frame codec** — :func:`send_frame` / :func:`recv_frame` — and the
  daemon loop (:func:`worker_loop`) that speaks it.

Wire layout of one frame::

    <Q control_len> <I nseg> <control bytes> nseg * (<Q size> <raw bytes>)

``pickle`` runs at protocol 5 with a ``buffer_callback``, so the control
bytes carry metadata only and each ndarray buffer crosses as its own raw
length-prefixed segment, sent straight from the array's memory instead of
being copied through a pickled payload first.  Every length read off the
wire is capped (:data:`MAX_FRAME_BYTES`, :data:`MAX_SEGMENTS_PER_FRAME`)
before anything is allocated.

Protocol frames (all pickled tuples):

=======================  =================================================
scheduler -> worker      meaning
=======================  =================================================
``("shard", t, s,        run shard ``s`` of task ``t`` over ``pairs`` —
`` pairs)``              a list of ``(item_index, item)`` tuples (the
                         worker host sends one pair, ``s`` = its index)
``("shard_image", t,     run shard ``s`` of task ``t`` over the item
`` s, indices)``         *indices* into the fork-inherited
                         :data:`_IMAGE_ITEMS` registry
``("stop",)``            exit the daemon loop
=======================  =================================================

=======================  =================================================
worker -> scheduler      meaning
=======================  =================================================
``("done", s, elapsed,   shard ``s`` finished; per-item results in item
`` results)``            order; ``elapsed`` task seconds
``("fail", s, trace,     shard ``s`` raised; formatted traceback attached,
`` exc_bytes)``          plus the pickled exception when it pickles (so the
                         scheduler can re-raise the original type)
=======================  =================================================
"""

from __future__ import annotations

import multiprocessing
# Imported eagerly: Process.join(timeout) imports it lazily, and a first
# import interrupted by a garbage collection whose finalizer joins a
# daemon would see it partially initialised.
import multiprocessing.connection  # noqa: F401
import pickle
import socket
import struct
import threading
import time
import traceback
import weakref

#: One lock for every fork (and every mutation of the fork-inherited task
#: registries) in the execution layer: the registries must stay stable for a
#: whole map, because a replacement worker forked mid-map after a death must
#: still inherit that map's task.  Shared by every backend.
LIFECYCLE_LOCK = threading.Lock()

#: Hard ceiling on any single length field read off the wire — a corrupt
#: or hostile peer must not drive an unbounded allocation before pickle
#: even sees the payload.  8 GiB: far above any real frame, far below the
#: address-space damage a forged 2**63 prefix could do.
MAX_FRAME_BYTES = 8 << 30

#: Ceiling on segments per frame (a frame with a million buffers is a
#: protocol violation, not a workload).
MAX_SEGMENTS_PER_FRAME = 1 << 20

#: Parts below this are coalesced into one ``sendall``; larger buffers are
#: sent straight from their memory.
_COALESCE_BYTES = 64 << 10

_HEADER = struct.Struct("<QI")
_SEG_SIZE = struct.Struct("<Q")


class FrameProtocolError(ConnectionError):
    """A malformed or protocol-violating frame (an oversized length prefix
    or segment count).

    Subclasses :class:`ConnectionError` so every death-handling path —
    ``except (EOFError, OSError)`` on both sides of the wire — treats a
    poisoned stream exactly like a closed one: the daemon is retired and
    its in-flight shard re-enqueued.
    """


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def in_worker_process() -> bool:
    """Whether the current process is a worker daemon (workers must not fork)."""
    process = multiprocessing.current_process()
    return bool(process.daemon) or process.name != "MainProcess"


# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------


def _check_length(length: int, what: str) -> int:
    if length > MAX_FRAME_BYTES:
        raise FrameProtocolError(
            f"{what} of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte "
            "frame cap (corrupt stream or hostile peer)"
        )
    return length


def _recv_exact(conn: socket.socket, count: int) -> bytes:
    chunks = []
    while count:
        chunk = conn.recv(min(count, 1 << 20))
        if not chunk:
            raise EOFError("worker connection closed")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def _recv_exact_into(conn: socket.socket, view: memoryview) -> None:
    while view.nbytes:
        received = conn.recv_into(view, min(view.nbytes, 1 << 20))
        if not received:
            raise EOFError("worker connection closed")
        view = view[received:]


def send_frame(conn: socket.socket, message: tuple) -> None:
    """Write one frame carrying ``message`` to ``conn``."""
    # Pickle first: a PicklingError must surface before any bytes are
    # written, so a failed send never leaves a torn frame on the stream.
    buffers: list = []
    control = pickle.dumps(message, protocol=5, buffer_callback=buffers.append)
    if len(buffers) > MAX_SEGMENTS_PER_FRAME:
        raise ValueError(
            f"frame with {len(buffers)} out-of-band buffers exceeds the "
            f"{MAX_SEGMENTS_PER_FRAME}-segment cap"
        )
    parts: list = [_HEADER.pack(len(control), len(buffers)), control]
    for buffer in buffers:
        raw = buffer.raw()
        parts.append(_SEG_SIZE.pack(raw.nbytes))
        parts.append(raw)
    # One sendall per large part, small parts coalesced.
    small = bytearray()
    for part in parts:
        view = memoryview(part)
        if view.nbytes < _COALESCE_BYTES:
            small += view
            continue
        if small:
            conn.sendall(small)
            small = bytearray()
        conn.sendall(view)
    if small:
        conn.sendall(small)


def recv_frame(conn: socket.socket) -> tuple:
    """Read one frame from ``conn``.

    The control length, the segment count and every segment size are
    sanity-capped before any allocation: a corrupt or hostile peer must
    poison only its own connection (:class:`FrameProtocolError` is a
    :class:`ConnectionError`, so every caller's death handling applies),
    not drive a near-2**64-byte allocation.
    """
    control_len, nseg = _HEADER.unpack(_recv_exact(conn, _HEADER.size))
    _check_length(control_len, "control frame")
    if nseg > MAX_SEGMENTS_PER_FRAME:
        raise FrameProtocolError(
            f"frame names {nseg} segments (cap {MAX_SEGMENTS_PER_FRAME}; "
            "corrupt stream or hostile peer)"
        )
    control = _recv_exact(conn, control_len)
    buffers = []
    for _ in range(nseg):
        (size,) = _SEG_SIZE.unpack(_recv_exact(conn, _SEG_SIZE.size))
        block = bytearray(_check_length(size, "segment"))
        _recv_exact_into(conn, memoryview(block))
        buffers.append(block)
    return pickle.loads(control, buffers=buffers)


# ---------------------------------------------------------------------------
# Fork-image task registries and the daemon loop
# ---------------------------------------------------------------------------

#: Task callables that travel by fork memory image, keyed by task token.
#: Entries are added (under :data:`LIFECYCLE_LOCK`) immediately before
#: workers are forked — so the workers inherit them — and removed only when
#: the token is retired, so a replacement worker forked at any later point
#: of the token's lifetime still finds its task.
_IMAGE_TASKS: dict = {}

#: Item lists of one-shot maps whose items do not pickle, keyed by task
#: token; inherited by fork exactly like :data:`_IMAGE_TASKS`.  Shards of
#: such maps name item *indices* (``"shard_image"`` frames) instead of
#: carrying the items across the wire.
_IMAGE_ITEMS: dict = {}

#: Scheduler-side sockets a forked worker must not keep open (the
#: scheduler ends of every worker's connection).  Closed at the top of the
#: worker entry point.
_PARENT_SOCKETS: "weakref.WeakSet" = weakref.WeakSet()


def _close_inherited_parent_sockets() -> None:
    for sock in list(_PARENT_SOCKETS):
        try:
            sock.close()
        except OSError:  # pragma: no cover - already closed
            pass


def worker_loop(conn: socket.socket) -> None:
    """Daemon loop of one worker: serve shards until told to stop (or the
    scheduler goes away)."""
    try:
        while True:
            try:
                message = recv_frame(conn)
            except (EOFError, OSError):
                return  # scheduler went away
            kind = message[0]
            if kind == "stop":
                return
            _, token, shard_index, payload = message
            start = time.perf_counter()
            try:
                fn = _IMAGE_TASKS[token]
                if kind == "shard_image":
                    items = _IMAGE_ITEMS[token]
                    results = [fn(items[index]) for index in payload]
                else:
                    results = [fn(item) for _, item in payload]
                elapsed = time.perf_counter() - start
                reply = ("done", shard_index, elapsed, results)
            except BaseException as error:
                trace = traceback.format_exc()
                try:
                    # Ship the exception itself when it pickles, so the
                    # scheduler can re-raise the original type (the serial
                    # backend's semantics); the traceback text always gets
                    # through regardless.
                    exc_bytes = pickle.dumps(error, protocol=pickle.HIGHEST_PROTOCOL)
                except Exception:
                    exc_bytes = None
                reply = ("fail", shard_index, trace, exc_bytes)
            try:
                send_frame(conn, reply)
            except Exception:
                # Unpicklable results: report the failure instead of dying
                # silently (the fallback message is always picklable).
                try:
                    send_frame(
                        conn, ("fail", shard_index, traceback.format_exc(), None)
                    )
                except Exception:
                    return
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# The launcher
# ---------------------------------------------------------------------------


def _worker_entry(conn: socket.socket) -> None:
    """Entry point of one worker: drop the scheduler-side sockets the fork
    copied (other workers' connections — a held peer FD would mask their
    EOFs), then serve."""
    _close_inherited_parent_sockets()
    worker_loop(conn)


def spawn_worker() -> tuple:
    """Fork one worker daemon; return ``(process, scheduler_socket)``.

    The worker inherits the scheduler's memory image, so the task callable
    (and, for one-shot maps, the items) never cross the wire — they are
    looked up in the fork-inherited registries by token.
    """
    parent_conn, child_conn = socket.socketpair()
    context = multiprocessing.get_context("fork")
    process = context.Process(target=_worker_entry, args=(child_conn,), daemon=True)
    # Register the scheduler side *before* forking: the child inherits a
    # duplicate of it, and unless the entry point closes that dup, the
    # worker's own socketpair could never deliver the scheduler-died EOF
    # (the dup would hold the pair open from inside the worker).
    _PARENT_SOCKETS.add(parent_conn)
    process.start()
    child_conn.close()
    return process, parent_conn

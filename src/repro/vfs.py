"""A file-handle layer over either file system.

The core `LFS`/`FFS` APIs are whole-call (read/write by path or inode).
``FileSystemView`` adds the open/read/write/seek/close discipline real
applications use — what a fusepy front-end would sit on — and works over
either file system: both inherit the one
:class:`~repro.core.namespace.Namespace`, ``sync`` and ``fsync`` included.

Example::

    vfs = FileSystemView(fs)
    with vfs.open("/log.txt", "a") as fh:
        fh.write(b"appended line\\n")
    with vfs.open("/log.txt") as fh:
        fh.seek(-14, whence=2)
        print(fh.read())
"""

from __future__ import annotations

from repro.core.errors import FileNotFoundLFSError, InvalidOperationError


class FileHandle:
    """An open file with a position cursor.

    Modes: ``"r"`` (read only, must exist), ``"w"`` (truncate/create),
    ``"a"`` (append, create), ``"r+"`` (read/write, must exist). Handles
    are context managers; closing flushes nothing extra (the file system
    buffers durably on its own schedule) but invalidates the handle.
    """

    def __init__(self, vfs: "FileSystemView", path: str, mode: str) -> None:
        if mode not in ("r", "w", "a", "r+"):
            raise InvalidOperationError(f"unsupported mode {mode!r}")
        self._vfs = vfs
        self._fs = vfs.fs
        self.path = path
        self.mode = mode
        self._closed = False
        exists = self._fs.exists(path)
        if mode in ("r", "r+") and not exists:
            raise FileNotFoundLFSError(f"{path!r} does not exist")
        if mode == "w":
            if exists:
                self._fs.truncate(path, 0)
            else:
                self._fs.create(path)
        if mode == "a" and not exists:
            self._fs.create(path)
        self._inum = self._fs.stat(path).inum
        self._pos = self._size() if mode == "a" else 0

    # ------------------------------------------------------------------

    def _size(self) -> int:
        return self._fs.stat(self.path).size

    def _check_open(self) -> None:
        if self._closed:
            raise InvalidOperationError(f"I/O on closed handle for {self.path!r}")

    @property
    def closed(self) -> bool:
        return self._closed

    def tell(self) -> int:
        """Current position."""
        self._check_open()
        return self._pos

    def seek(self, offset: int, whence: int = 0) -> int:
        """Reposition: whence 0 = start, 1 = current, 2 = end."""
        self._check_open()
        if whence == 0:
            new = offset
        elif whence == 1:
            new = self._pos + offset
        elif whence == 2:
            new = self._size() + offset
        else:
            raise InvalidOperationError(f"bad whence {whence}")
        if new < 0:
            raise InvalidOperationError("negative seek position")
        self._pos = new
        return new

    def read(self, size: int | None = None) -> bytes:
        """Read up to ``size`` bytes (default: to EOF) from the cursor."""
        self._check_open()
        if self.mode in ("w", "a"):
            raise InvalidOperationError(f"handle opened {self.mode!r} cannot read")
        data = self._fs.read_inum(self._inum, self._pos, size)
        self._pos += len(data)
        return data

    def write(self, data: bytes) -> int:
        """Write ``data`` at the cursor; returns bytes written."""
        self._check_open()
        if self.mode == "r":
            raise InvalidOperationError("handle is read-only")
        if self.mode == "a":
            self._pos = self._size()
        self._fs.write_inum(self._inum, data, self._pos)
        self._pos += len(data)
        return len(data)

    def truncate(self, size: int | None = None) -> int:
        """Truncate to ``size`` (default: the cursor)."""
        self._check_open()
        if self.mode == "r":
            raise InvalidOperationError("handle is read-only")
        target = self._pos if size is None else size
        self._fs.truncate(self.path, target)
        return target

    def flush(self) -> None:
        """Push buffered writes into the log (fsync-ish)."""
        self._check_open()
        self._fs.sync()

    def fsync(self) -> None:
        """Make this file's writes durable before returning.

        The per-handle commit point real applications use (mail servers,
        database WALs): on an LFS with NVM staging the acknowledgement
        may come from a staging-log append instead of a segment flush,
        but either way everything written through this handle up to now
        survives any later crash. Raises on a closed handle, same as any
        other I/O — fsync-after-close is a lifetime bug, not a no-op.
        """
        self._check_open()
        self._fs.fsync(self.path)

    def close(self) -> None:
        """Invalidate the handle; closing twice is a usage bug."""
        if self._closed:
            raise InvalidOperationError(
                f"handle for {self.path!r} is already closed"
            )
        self._closed = True
        self._vfs._handles.discard(self)

    def __enter__(self) -> "FileHandle":
        return self

    def __exit__(self, *exc) -> None:
        if not self._closed:
            self.close()

    def __iter__(self):
        """Iterate lines, like a Python file object."""
        buffer = b""
        while True:
            chunk = self.read(4096)
            if not chunk:
                break
            buffer += chunk
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                yield line + b"\n"
        if buffer:
            yield buffer


class FileSystemView:
    """Handle-oriented facade over an LFS or FFS instance."""

    def __init__(self, fs) -> None:
        self.fs = fs
        self._handles: set[FileHandle] = set()

    def open(self, path: str, mode: str = "r") -> FileHandle:
        """Open a file, creating it when the mode requires."""
        handle = FileHandle(self, path, mode)
        self._handles.add(handle)
        return handle

    def close_all(self) -> None:
        """Close every still-open handle this view produced."""
        for handle in list(self._handles):
            if not handle.closed:
                handle.close()

    # convenience passthroughs ------------------------------------------------

    def exists(self, path: str) -> bool:
        return self.fs.exists(path)

    def listdir(self, path: str = "/") -> list[str]:
        return self.fs.readdir(path)

    def remove(self, path: str) -> None:
        self.fs.unlink(path)

    def mkdir(self, path: str) -> None:
        self.fs.mkdir(path)

    def rename(self, old: str, new: str) -> None:
        self.fs.rename(old, new)

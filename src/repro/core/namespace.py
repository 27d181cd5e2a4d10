"""The namespace LFS and the FFS baseline share: paths, entry rules, whole-path calls.

Sprite LFS keeps Unix FFS's basic structures, inodes, directories and
paths (paper Section 3.1), so :class:`Namespace` holds them once and the
two file systems differ only in where bytes go and when they are written:
the I/O pattern the paper's comparisons measure.

A subclass supplies the storage: ``config.block_size``; ``_dir_states``
(``inum -> Directory``, directories only); ``get_inode`` and
``_read_data_block``; and the bodies of ``create``, ``link``, ``unlink``,
``rename``, ``truncate``, ``write_inum``, ``read_inum`` and ``sync``, each
run after the entry rule here that vets its arguments. LFS overrides
``_require_mounted``; an FFS is always mounted.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import directory as dirfmt
from repro.core.constants import ROOT_INUM, FileType
from repro.core.errors import (
    DirectoryNotEmptyError,
    FileExistsLFSError,
    FileNotFoundLFSError,
    InvalidOperationError,
    IsADirectoryError_,
    NotADirectoryError_,
)
from repro.core.inode import Inode


@dataclass
class StatResult:
    """Metadata returned by :meth:`Namespace.stat`."""

    inum: int
    ftype: FileType
    size: int
    nlink: int
    mtime: float
    version: int

    @property
    def is_directory(self) -> bool:
        return self.ftype == FileType.DIRECTORY


class Namespace:
    """Path lookup, entry rules and whole-path operations over any storage."""

    def _require_mounted(self) -> None:
        """Refuse calls on a detached file system (overridden by LFS)."""

    # ==================================================================
    # path lookup

    def _resolve(self, path: str) -> int:
        """Path -> inode number; raises if any component is missing."""
        return self._walk(dirfmt.split_path(path))

    def _walk(self, parts: list[str]) -> int:
        """Inode number at path components ``parts`` below the root.

        Only directories are ever in ``_dir_states``, so an inode is read
        to check its type only when its directory is not in memory yet.
        """
        inum = ROOT_INUM
        dirs = self._dir_states
        for part in parts:
            state = dirs.get(inum)
            if state is None:
                if not self.get_inode(inum).is_directory:
                    raise NotADirectoryError_(f"{part!r} looked up under a non-directory")
                state = self._dir_state(inum)
            hit = state.index.get(part)
            if hit is None:
                path = "/" + "/".join(parts)
                raise FileNotFoundLFSError(f"path {path!r}: component {part!r} not found")
            inum = hit[0]
        return inum

    def _resolve_parent(self, path: str) -> tuple[int, str]:
        """Path -> (parent directory inum, final component name)."""
        parts = dirfmt.split_path(path)
        if not parts:
            raise InvalidOperationError("the root directory has no parent")
        parent = self._walk(parts[:-1])
        if not self.get_inode(parent).is_directory:
            raise NotADirectoryError_(f"parent of {path!r} is not a directory")
        return parent, parts[-1]

    def _dir_state(self, inum: int) -> dirfmt.Directory:
        """A directory's entries, loaded from its blocks on first use."""
        state = self._dir_states.get(inum)
        if state is not None:
            return state
        inode = self.get_inode(inum)
        if not inode.is_directory:
            raise NotADirectoryError_(f"inode {inum} is not a directory")
        bs = self.config.block_size
        state = dirfmt.Directory.load(
            (self._read_data_block(inum, fbn) for fbn in range(inode.nblocks(bs))), bs
        )
        self._dir_states[inum] = state
        return state

    # ==================================================================
    # entry rules: each vets an operation before it changes anything

    def _free_name(self, path: str) -> tuple[int, str]:
        """(parent, name) for a new entry at ``path``, a valid untaken name."""
        parent, name = self._resolve_parent(path)
        dirfmt.validate_name(name)
        if self._dir_state(parent).lookup(name) is not None:
            raise FileExistsLFSError(f"{path!r} already exists")
        return parent, name

    def _link_source(self, path: str) -> tuple[int, Inode]:
        """(inum, inode) of a hard link's target, which is no directory."""
        inum = self._resolve(path)
        inode = self.get_inode(inum)
        if inode.is_directory:
            raise IsADirectoryError_("cannot hard-link a directory")
        return inum, inode

    def _removable(self, path: str) -> tuple[int, str, int, Inode]:
        """(parent, name, inum, inode) of an entry that may be unlinked."""
        parent, name = self._resolve_parent(path)
        inum = self._dir_state(parent).lookup(name)
        if inum is None:
            raise FileNotFoundLFSError(f"{path!r} not found")
        inode = self.get_inode(inum)
        if inode.is_directory and len(self._dir_state(inum)):
            raise DirectoryNotEmptyError(f"{path!r} is not empty")
        return parent, name, inum, inode

    def _rename_plan(
        self, oldpath: str, newpath: str
    ) -> tuple[int, str, int, str, int, int | None] | None:
        """(old parent, old name, new parent, new name, inum, displaced inum).

        None when the rename names one entry twice (a no-op). As in POSIX
        ``rename(2)``, a displaced directory must be empty and an entry may
        only displace one of its own kind.
        """
        old_parent, old_name = self._resolve_parent(oldpath)
        new_parent, new_name = self._resolve_parent(newpath)
        dirfmt.validate_name(new_name)
        dirfmt.refuse_move_into_itself(oldpath, newpath)
        inum = self._dir_state(old_parent).lookup(old_name)
        if inum is None:
            raise FileNotFoundLFSError(f"{oldpath!r} not found")
        displaced = self._dir_state(new_parent).lookup(new_name)
        if displaced == inum:
            return None
        moving_dir = self.get_inode(inum).is_directory
        if displaced is not None:
            victim_dir = self.get_inode(displaced).is_directory
            if victim_dir and len(self._dir_state(displaced)):
                raise DirectoryNotEmptyError(f"{newpath!r} is not empty")
            if victim_dir and not moving_dir:
                raise IsADirectoryError_(f"{newpath!r} is a directory")
            if moving_dir and not victim_dir:
                raise NotADirectoryError_(f"{newpath!r} is not a directory")
        return old_parent, old_name, new_parent, new_name, inum, displaced

    def _truncate_target(self, path: str, size: int) -> tuple[int, Inode] | None:
        """(inum, inode) of a file to shrink to ``size``; None if it has that size."""
        inum = self._resolve(path)
        inode = self.get_inode(inum)
        if inode.is_directory:
            raise IsADirectoryError_(f"{path!r} is a directory")
        if size < 0 or size > inode.size:
            raise InvalidOperationError(f"cannot truncate to {size}")
        if size == inode.size:
            return None
        return inum, inode

    def _read_range(self, inum: int, offset: int, length: int | None) -> bytes:
        """Bytes ``[offset, offset + length)`` of a file, clipped at its end.

        Empty exactly when the clipped range is: callers count a read only
        when it returned bytes.
        """
        if offset < 0:
            raise InvalidOperationError("negative offset")
        inode = self.get_inode(inum)
        if length is None:
            length = max(0, inode.size - offset)
        end = min(offset + length, inode.size)
        if end <= offset:
            return b""
        bs = self.config.block_size
        chunks = []
        pos = offset
        while pos < end:
            fbn = pos // bs
            block_off = pos % bs
            take = min(bs - block_off, end - pos)
            payload = self._read_data_block(inum, fbn)
            chunks.append(payload[block_off : block_off + take])
            pos += take
        return b"".join(chunks)

    # ==================================================================
    # whole-path operations

    def exists(self, path: str) -> bool:
        """True if ``path`` names a file or directory."""
        self._require_mounted()
        try:
            self._resolve(path)
            return True
        except (FileNotFoundLFSError, NotADirectoryError_):
            return False

    def stat(self, path: str) -> StatResult:
        """Attributes of a file or directory."""
        self._require_mounted()
        inum = self._resolve(path)
        inode = self.get_inode(inum)
        return StatResult(
            inum=inum,
            ftype=inode.ftype,
            size=inode.size,
            nlink=inode.nlink,
            mtime=inode.mtime,
            version=inode.version,
        )

    def readdir(self, path: str) -> list[str]:
        """Names in a directory, sorted."""
        self._require_mounted()
        inum = self._resolve(path)
        if not self.get_inode(inum).is_directory:
            raise NotADirectoryError_(f"{path!r} is not a directory")
        return self._dir_state(inum).names()

    def mkdir(self, path: str) -> int:
        """Create a directory."""
        return self.create(path, ftype=FileType.DIRECTORY)

    def write(self, path: str, data: bytes, offset: int = 0) -> None:
        """Write ``data`` at ``offset``, extending the file as needed."""
        self._require_mounted()
        inum = self._resolve(path)
        self.write_inum(inum, data, offset)

    def append(self, path: str, data: bytes) -> None:
        """Append ``data`` to the end of the file."""
        inum = self._resolve(path)
        self.write_inum(inum, data, self.get_inode(inum).size)

    def write_file(self, path: str, data: bytes) -> int:
        """Create (if needed) and write a whole file; returns the inum."""
        self._require_mounted()
        if self.exists(path):
            inum = self._resolve(path)
            self.truncate(path, 0)
        else:
            inum = self.create(path)
        self.write_inum(inum, data)
        return inum

    def read(self, path: str, offset: int = 0, length: int | None = None) -> bytes:
        """Read ``length`` bytes (default: to EOF) starting at ``offset``."""
        self._require_mounted()
        return self.read_inum(self._resolve(path), offset, length)

    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""
        inum = self._resolve(path)
        if not self.get_inode(inum).is_directory:
            raise NotADirectoryError_(f"{path!r} is not a directory")
        self.unlink(path)

    def remove(self, path: str) -> None:
        """Remove a file or empty directory."""
        self.unlink(path)

    def fsync(self, path: str) -> None:
        """fsync(2): make ``path``'s acknowledged state durable.

        The path is resolved first (fsync on a deleted file is an error,
        mirroring the VFS's closed-handle check), then the call provides
        the same durability as ``sync``. On an LFS the staging record —
        or the fallback flush — absorbs the *whole* pending set rather
        than one file's slice: the point of the staging log (and of the
        log itself) is batching, and the crash oracle treats fsync as a
        full barrier, so over-delivering keeps both domains simple and
        sound.
        """
        self._require_mounted()
        self._resolve(path)
        self.sync()

"""Namespace operations on both file systems: pinned images, rename rules
and one error contract."""

import hashlib
import random

import pytest

from repro.core.config import LFSConfig
from repro.core.errors import (
    DirectoryNotEmptyError,
    FileExistsLFSError,
    FileNotFoundLFSError,
    InvalidOperationError,
    IsADirectoryError_,
    NotADirectoryError_,
)
from repro.core.filesystem import LFS
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.ffs.filesystem import FFS, FFSConfig
from repro.tools.lfsck import check_filesystem
from repro.vfs import FileSystemView

from tests.conftest import small_config


def image_sha256(disk: Disk) -> str:
    """sha256 over every written block, in address order."""
    h = hashlib.sha256()
    for addr in sorted(disk.written_addresses()):
        h.update(addr.to_bytes(8, "little"))
        h.update(disk.peek(addr))
    return h.hexdigest()


def namespace_mix(fs) -> None:
    """Creates, links, renames and unlinks over four 1 KB-block directories.

    Names run from 1 to 200 encoded bytes, some multi-byte UTF-8, so a
    directory spans several blocks and unlinks leave holes of different
    sizes for the next insert to find: LFS's last-block-first rule and
    FFS's first fit place the same entry in different blocks.
    """
    rng = random.Random(29)
    dirs = ["/d0", "/d1", "/d2", "/d1/sub"]
    for d in dirs:
        fs.mkdir(d)
    live: list[str] = []
    for i in range(160):
        stem = rng.choice(["x", "é", "日本", "f"])
        name = f"{i}{stem * rng.randrange(0, 60)}"[: rng.randrange(1, 200)]
        name = name.encode("utf-8")[:200].decode("utf-8", "ignore") or f"{i}"
        path = f"{rng.choice(dirs)}/{name}"
        if fs.exists(path):
            continue
        fs.write_file(path, bytes([i % 251]) * rng.randrange(1, 300))
        live.append(path)
    for step in range(120):
        op = rng.randrange(4)
        path = rng.choice(live)
        if op == 0:
            fs.unlink(path)
            live.remove(path)
        elif op == 1:
            new = f"{rng.choice(dirs)}/l{step}{'ü' * rng.randrange(0, 40)}"
            fs.link(path, new)
            live.append(new)
        elif op == 2:
            new = f"{rng.choice(dirs)}/r{step}{'z' * rng.randrange(0, 120)}"
            fs.rename(path, new)
            live[live.index(path)] = new
        else:
            # rename over an existing entry: the target is displaced
            other = rng.choice(live)
            if other != path:
                fs.rename(path, other)
                live.remove(path)
    for i in range(40):
        path = f"{rng.choice(dirs)}/refill{i}{'q' * rng.randrange(0, 30)}"
        fs.write_file(path, b"refill")
        live.append(path)


def _lfs_image():
    disk = Disk(DiskGeometry.wren4(block_size=1024, num_blocks=16384))
    fs = LFS.format(
        disk,
        LFSConfig(block_size=1024, segment_bytes=64 * 1024, max_inodes=1024, cache_blocks=2048),
    )
    namespace_mix(fs)
    fs.unmount()
    assert check_filesystem(disk).ok
    return disk


def _ffs_image():
    disk = Disk(DiskGeometry.wren4(block_size=1024, num_blocks=8192))
    fs = FFS.format(disk, FFSConfig(block_size=1024, max_inodes=1024, num_groups=4))
    namespace_mix(fs)
    fs.sync()
    return disk


class TestPinnedNamespaceImages:
    """The same namespace mix writes byte-identical images, commit to commit.

    Any change to how a directory block is laid out (entry order, which
    block an insert picks, padding) or to when it is written moves these
    pins; so does any change to the simulated time the mix costs.
    """

    @pytest.mark.parametrize(
        "build, sha, now",
        [
            (
                _lfs_image,
                "2106a0daca8cb6b710803e4afd905254e86776c7694e024da4f1f0e3ceb07ef1",
                0.31005849653131734,
            ),
            (
                _ffs_image,
                "c6ac523816ff4d95803b6e1e38a5c583c8e3687e9536de2620d086cc5ff2d49c",
                23.01733815609315,
            ),
        ],
        ids=["lfs", "ffs"],
    )
    def test_image_is_pinned(self, build, sha, now):
        disk = build()
        assert (image_sha256(disk), disk.clock.now) == (sha, now)


def _lfs():
    return LFS.format(Disk(DiskGeometry.wren4(num_blocks=4096)), small_config())


def _ffs():
    disk = Disk(DiskGeometry.wren4(block_size=8192, num_blocks=2048))
    return FFS.format(disk, FFSConfig(max_inodes=1024))


@pytest.fixture(params=["lfs", "ffs", "vfs"])
def pair(request):
    """(what the call goes through, the file system underneath)."""
    fs = _ffs() if request.param == "ffs" else _lfs()
    return (FileSystemView(fs) if request.param == "vfs" else fs), fs


def assert_consistent(fs) -> None:
    """On an LFS, unmount and run lfsck over the image."""
    if isinstance(fs, LFS):
        fs.unmount()
        report = check_filesystem(fs.disk)
        assert report.ok, report.errors


class TestRenameIntoOwnSubtree:
    """POSIX EINVAL: a directory cannot become its own descendant."""

    @pytest.mark.parametrize("new", ["/a/b/c", "/a/b", "/a/x"])
    def test_refused_and_tree_intact(self, pair, new):
        front, fs = pair
        fs.mkdir("/a")
        fs.mkdir("/a/b")
        fs.write_file("/a/b/f", b"f")
        with pytest.raises(InvalidOperationError):
            front.rename("/a", new)
        assert fs.readdir("/") == ["a"]
        assert fs.readdir("/a") == ["b"]
        assert fs.read("/a/b/f") == b"f"
        assert_consistent(fs)

    def test_moves_beside_and_onto_itself_still_allowed(self, pair):
        front, fs = pair
        fs.mkdir("/a")
        fs.mkdir("/a/b")
        front.rename("/a", "/a")  # the same entry: a no-op
        front.rename("/a/b", "/ab")  # a shared name prefix is not a subtree
        front.rename("/ab", "/a/b")
        assert fs.readdir("/") == ["a"]
        assert fs.readdir("/a") == ["b"]


class TestRenameAcrossKinds:
    """POSIX EISDIR/ENOTDIR: a rename never changes what kind a name is."""

    @staticmethod
    def populate(fs) -> None:
        fs.mkdir("/d")
        fs.mkdir("/e")
        fs.write_file("/f", b"f")
        fs.write_file("/g", b"g")

    @pytest.mark.parametrize(
        "old, new, error",
        [("/f", "/d", IsADirectoryError_), ("/e", "/g", NotADirectoryError_)],
        ids=["file-onto-dir", "dir-onto-file"],
    )
    def test_refused_and_tree_intact(self, pair, old, new, error):
        front, fs = pair
        self.populate(fs)
        with pytest.raises(error):
            front.rename(old, new)
        assert fs.readdir("/") == ["d", "e", "f", "g"]
        assert fs.stat("/d").is_directory and fs.stat("/e").is_directory
        assert (fs.read("/f"), fs.read("/g")) == (b"f", b"g")
        assert_consistent(fs)

    def test_same_kind_still_displaced(self, pair):
        front, fs = pair
        self.populate(fs)
        front.rename("/f", "/g")
        front.rename("/e", "/d")
        assert fs.readdir("/") == ["d", "g"]
        assert fs.read("/g") == b"f"
        assert_consistent(fs)


def _truncate(front, path: str, size: int) -> None:
    """Truncate through an ``r+`` handle on a view, else by path."""
    if isinstance(front, FileSystemView):
        with front.open(path, "r+") as fh:
            fh.truncate(size)
    else:
        front.truncate(path, size)


def _read_at(front, fs, path: str, offset: int) -> bytes:
    """Read from ``offset`` through a handle on a view, else by inode."""
    if isinstance(front, FileSystemView):
        with front.open(path) as fh:
            fh.seek(offset)
            return fh.read()
    return fs.read_inum(fs.stat(path).inum, offset)


# misuse -> (the call, given (front, fs), and the error both file systems raise)
MISUSES = {
    "create-existing": (lambda v, fs: fs.create("/f"), FileExistsLFSError),
    "mkdir-existing": (lambda v, fs: v.mkdir("/d"), FileExistsLFSError),
    "mkdir-under-file": (lambda v, fs: v.mkdir("/f/x"), NotADirectoryError_),
    "unlink-missing": (lambda v, fs: v.remove("/missing"), FileNotFoundLFSError),
    "unlink-nonempty-dir": (lambda v, fs: v.remove("/d"), DirectoryNotEmptyError),
    "link-directory": (lambda v, fs: fs.link("/d", "/d2"), IsADirectoryError_),
    "truncate-past-end": (lambda v, fs: _truncate(v, "/f", 11), InvalidOperationError),
    "truncate-negative": (lambda v, fs: _truncate(v, "/f", -1), InvalidOperationError),
    "truncate-directory": (lambda v, fs: _truncate(v, "/d", 0), IsADirectoryError_),
    "read-negative-offset": (lambda v, fs: _read_at(v, fs, "/f", -1), InvalidOperationError),
    "rmdir-file": (lambda v, fs: fs.rmdir("/f"), NotADirectoryError_),
    "rmdir-nonempty": (lambda v, fs: fs.rmdir("/d"), DirectoryNotEmptyError),
    "remove-missing": (lambda v, fs: fs.remove("/missing"), FileNotFoundLFSError),
    "append-directory": (lambda v, fs: fs.append("/d", b"x"), IsADirectoryError_),
    "fsync-missing": (lambda v, fs: fs.fsync("/missing"), FileNotFoundLFSError),
}


class TestErrorContract:
    """Both file systems refuse each misuse with the same typed error."""

    @staticmethod
    def populate(fs) -> None:
        fs.mkdir("/d")
        fs.write_file("/d/g", b"g")
        fs.write_file("/f", b"0123456789")

    @pytest.mark.parametrize("misuse", sorted(MISUSES))
    def test_refused_and_tree_intact(self, pair, misuse):
        front, fs = pair
        self.populate(fs)
        call, error = MISUSES[misuse]
        with pytest.raises(error):
            call(front, fs)
        assert fs.readdir("/") == ["d", "f"]
        assert fs.readdir("/d") == ["g"]
        assert fs.read("/f") == b"0123456789"
        assert_consistent(fs)

    def test_whole_path_calls_succeed(self, pair):
        """rmdir, remove, append and fsync work on both; so do a handle's
        flush and fsync."""
        front, fs = pair
        self.populate(fs)
        if isinstance(front, FileSystemView):
            with front.open("/f", "a") as fh:
                fh.write(b"ab")
                fh.flush()
                fh.fsync()
        else:
            fs.append("/f", b"ab")
            fs.fsync("/f")
        fs.mkdir("/d/empty")
        fs.rmdir("/d/empty")
        fs.remove("/d/g")
        fs.rmdir("/d")
        assert fs.readdir("/") == ["f"]
        assert fs.read("/f") == b"0123456789ab"
        assert fs.stat("/f").size == 12
        assert_consistent(fs)

"""Property-based tests (hypothesis) on serialization and core invariants."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import directory as dirfmt
from repro.core.constants import NUM_DIRECT, BlockKind, DirOp, FileType
from repro.core.dirlog import DirOpRecord, pack_records, unpack_block
from repro.core.inode import Inode, pack_inode_block, unpack_inode_block
from repro.core.inode_map import InodeMap
from repro.core.seg_usage import SegmentUsageTable
from repro.core.summary import SegmentSummary, SummaryEntry

addr = st.integers(min_value=0, max_value=2**63)
inum_st = st.integers(min_value=1, max_value=2**31)
name_st = st.text(
    alphabet=st.characters(blacklist_characters="/\0", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=40,
).filter(lambda s: s not in (".", "..") and len(s.encode("utf-8")) <= 255)


class TestInodeRoundtrip:
    @given(
        inum=inum_st,
        version=st.integers(min_value=0, max_value=2**40),
        ftype=st.sampled_from(list(FileType)),
        nlink=st.integers(min_value=0, max_value=1000),
        size=st.integers(min_value=0, max_value=2**50),
        mtime=st.floats(min_value=0, max_value=1e12, allow_nan=False),
        direct=st.lists(addr, min_size=NUM_DIRECT, max_size=NUM_DIRECT),
        indirect=addr,
        dindirect=addr,
    )
    def test_roundtrip(self, inum, version, ftype, nlink, size, mtime, direct, indirect, dindirect):
        ino = Inode(
            inum=inum,
            version=version,
            ftype=ftype,
            nlink=nlink,
            size=size,
            mtime=mtime,
            ctime=0.0,
            direct=direct,
            indirect=indirect,
            dindirect=dindirect,
        )
        assert Inode.from_bytes(ino.to_bytes()) == ino

    @given(inums=st.lists(inum_st, min_size=1, max_size=21, unique=True))
    def test_block_packing(self, inums):
        inodes = [Inode(inum=i) for i in inums]
        got = unpack_inode_block(pack_inode_block(inodes, 4096), 4096)
        assert [g.inum for g in got] == inums


class TestDirectoryRoundtrip:
    @given(entries=st.lists(st.tuples(name_st, inum_st), max_size=30, unique_by=lambda e: e[0]))
    def test_roundtrip(self, entries):
        used = sum(dirfmt.entry_size(name) for name, _ in entries)
        if used > 4096:
            return
        payload = dirfmt.pack_block(entries, 4096)
        assert dirfmt.parse_block(payload) == entries


class TestDirOpRoundtrip:
    @given(
        op=st.sampled_from(list(DirOp)),
        file_inum=inum_st,
        refcount=st.integers(min_value=-1, max_value=100),
        dir1=inum_st,
        name1=name_st,
        dir2=inum_st,
        name2=name_st,
    )
    def test_single(self, op, file_inum, refcount, dir1, name1, dir2, name2):
        rec = DirOpRecord(
            op=op, file_inum=file_inum, refcount=refcount, dir1=dir1, name1=name1,
            dir2=dir2, name2=name2,
        )
        got, _ = DirOpRecord.unpack_from(rec.pack(), 0)
        assert got == rec

    @given(
        names=st.lists(name_st, min_size=1, max_size=40),
    )
    def test_block_stream(self, names):
        records = [
            DirOpRecord(op=DirOp.CREATE, file_inum=i + 1, refcount=1, dir1=1, name1=n)
            for i, n in enumerate(names)
        ]
        got = []
        for block in pack_records(records, 1024):
            got.extend(unpack_block(block))
        assert got == records


class TestSummaryRoundtrip:
    @given(
        seq=st.integers(min_value=1, max_value=2**40),
        kinds=st.lists(st.sampled_from(list(BlockKind)), min_size=0, max_size=20),
        next_segment=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_roundtrip(self, seq, kinds, next_segment):
        entries = [SummaryEntry(kind=k, inum=i + 1, offset=i, version=i % 5) for i, k in enumerate(kinds)]
        payloads = [bytes([i % 256]) * 4096 for i in range(len(entries))]
        s = SegmentSummary(seq=seq, write_time=1.0, entries=entries, next_segment=next_segment)
        raw = s.pack(payloads, 4096)
        got = SegmentSummary.unpack(raw, 4096)
        assert got.seq == seq
        assert got.next_segment == next_segment
        assert [e.kind for e in got.entries] == kinds
        assert got.verify(payloads)


class TestInodeMapModel:
    @given(ops=st.lists(st.tuples(st.sampled_from(["alloc", "free", "bump"]), st.randoms(use_true_random=False)), max_size=60))
    @settings(suppress_health_check=[HealthCheck.too_slow])
    def test_against_model(self, ops):
        """The inode map behaves like a dict with never-reused uids."""
        imap = InodeMap(max_inodes=64, entries_per_block=16)
        model: dict[int, int] = {}  # inum -> version
        uids: set[tuple[int, int]] = set()
        for op, rng in ops:
            if op == "alloc":
                if len(model) >= 62:
                    continue
                inum = imap.allocate()
                imap.set_addr(inum, 1000 + inum)
                assert inum not in model
                version = imap.version_of(inum)
                assert (inum, version) not in uids  # uid never reused
                uids.add((inum, version))
                model[inum] = version
            elif op == "free" and model:
                inum = sorted(model)[rng.randrange(len(model))]
                imap.free(inum)
                del model[inum]
            elif op == "bump" and model:
                inum = sorted(model)[rng.randrange(len(model))]
                model[inum] = imap.bump_version(inum)
        assert sorted(model) == imap.allocated_inums()
        for inum, version in model.items():
            assert imap.version_of(inum) == version

    @given(data=st.data())
    def test_serialization_preserves_state(self, data):
        imap = InodeMap(max_inodes=64, entries_per_block=16)
        for _ in range(data.draw(st.integers(0, 30))):
            inum = data.draw(st.integers(1, 63))
            imap.set_addr(inum, data.draw(st.integers(1, 2**40)))
        other = InodeMap(max_inodes=64, entries_per_block=16)
        for idx in range(imap.num_blocks):
            other.load_block(idx, imap.pack_block(idx, 4096))
        assert other.allocated_inums() == imap.allocated_inums()


class TestUsageTableModel:
    @given(
        events=st.lists(
            st.tuples(st.integers(0, 15), st.integers(-8192, 8192)), max_size=80
        )
    )
    def test_live_bytes_never_negative(self, events):
        table = SegmentUsageTable(16, 64 * 1024, 170)
        for seg, delta in events:
            if delta >= 0:
                table.add_live(seg, delta, when=1.0)
            else:
                table.remove_live(seg, -delta)
            assert table.get(seg).live_bytes >= 0
        assert table.total_live_bytes() >= 0

    @given(events=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 65536)), max_size=40))
    def test_serialization_roundtrip(self, events):
        table = SegmentUsageTable(16, 64 * 1024, 170)
        for seg, nbytes in events:
            table.add_live(seg, nbytes, when=2.0)
        other = SegmentUsageTable(16, 64 * 1024, 170)
        other.load_block(0, table.pack_block(0, 4096))
        for seg in range(16):
            assert other.get(seg).live_bytes == table.get(seg).live_bytes


class TestFilesystemAgainstModel:
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10000))
    def test_random_ops_match_dict_model(self, seed):
        """Random create/write/delete/rename against a dict reference."""
        from repro.core.filesystem import LFS
        from repro.disk.device import Disk
        from repro.disk.geometry import DiskGeometry
        from tests.conftest import small_config

        rng = random.Random(seed)
        disk = Disk(DiskGeometry.wren4(num_blocks=4096))
        fs = LFS.format(disk, small_config())
        model: dict[str, bytes] = {}
        names = [f"/n{i}" for i in range(12)]
        for _ in range(60):
            op = rng.choice(["write", "write", "delete", "rename", "truncate", "read"])
            path = rng.choice(names)
            if op == "write":
                payload = bytes([rng.randrange(256)]) * rng.randrange(1, 20000)
                fs.write_file(path, payload)
                model[path] = payload
            elif op == "delete":
                if path in model:
                    fs.unlink(path)
                    del model[path]
            elif op == "rename":
                dst = rng.choice(names)
                if path in model and dst != path:
                    fs.rename(path, dst)
                    model[dst] = model.pop(path)
            elif op == "truncate":
                if path in model:
                    keep = rng.randrange(len(model[path]) + 1)
                    fs.truncate(path, keep)
                    model[path] = model[path][:keep]
            else:
                if path in model:
                    assert fs.read(path) == model[path]
        for path, payload in model.items():
            assert fs.read(path) == payload
        assert sorted(model) == [f"/{n}" for n in fs.readdir("/")]

    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10000), crash_after=st.integers(5, 60))
    def test_recovery_never_resurrects_or_corrupts(self, seed, crash_after):
        """After any crash, every surviving file matches some version the
        model held, and sync'd files match exactly."""
        from repro.core.filesystem import LFS
        from repro.disk.device import Disk
        from repro.disk.geometry import DiskGeometry
        from tests.conftest import small_config

        rng = random.Random(seed)
        disk = Disk(DiskGeometry.wren4(num_blocks=4096))
        fs = LFS.format(disk, small_config())
        synced: dict[str, bytes] = {}
        history: dict[str, list[bytes]] = {}
        names = [f"/p{i}" for i in range(8)]
        for step in range(crash_after):
            path = rng.choice(names)
            alive = path in history and history[path] and history[path][-1] != b"<deleted>"
            if rng.random() < 0.25 and alive:
                fs.unlink(path)
                history[path].append(b"<deleted>")
            else:
                payload = bytes([step % 256]) * rng.randrange(1, 12000)
                fs.write_file(path, payload)
                history.setdefault(path, []).append(payload)
            if rng.random() < 0.3:
                fs.sync()
                synced = {
                    p: v[-1] for p, v in history.items() if v and v[-1] != b"<deleted>"
                }
        fs.sync()
        synced = {p: v[-1] for p, v in history.items() if v and v[-1] != b"<deleted>"}
        fs.crash()
        disk.power_on()
        fs2 = LFS.mount(disk, small_config())
        for path, payload in synced.items():
            assert fs2.read(path) == payload, path
        for name in fs2.readdir("/"):
            content = fs2.read(f"/{name}")
            assert content in history.get(f"/{name}", []), name

"""lfsck — offline integrity checker for an LFS disk image.

Reads only on-disk bytes (no file-system state) and verifies:

1. the superblock parses and matches the device;
2. at least one checkpoint region is valid;
3. every inode-map entry with an address points at a parseable inode
   block containing an inode with the right number and version;
4. every file block pointer (direct and indirect) lies inside the
   segment area and no two live files claim the same block;
5. directory trees are connected: every directory entry names a live
   inode, link counts match entry counts, and every non-root live inode
   is reachable from the root;
6. the segment usage table's live-byte counts are consistent with the
   actual live data (within the block-rounding granularity), no live file
   block sits in a quarantined segment, and
7. every current-epoch partial write in a live segment matches its
   summary CRCs. A failing write that sits at the very end of the
   post-checkpoint log is a *torn tail* — the expected residue of a crash,
   which roll-forward will drop — and is reported as a warning; a failing
   write anywhere else is silent corruption and is reported in
   ``checksum_errors`` (the CLI maps these to exit code 2).

All reads use ``disk.peek`` so checking never perturbs simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import directory as dirfmt
from repro.core.blocks import checksum, unpack_addrs
from repro.core.checkpoint import read_checkpoint
from repro.core.constants import INODE_SIZE, NO_SEGMENT, NULL_ADDR, ROOT_INUM
from repro.core.errors import CorruptionError
from repro.core.inode import Inode, addrs_per_indirect, unpack_inode_block
from repro.core.inode_map import InodeMap
from repro.core.seg_usage import SegmentUsageTable
from repro.core.summary import try_parse_summary
from repro.core.superblock import Superblock
from repro.disk.device import Disk


@dataclass
class CheckReport:
    """Outcome of an offline check."""

    ok: bool = True
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    live_inodes: int = 0
    live_blocks: int = 0
    checkpoint_seq: int = 0
    # Block addresses whose contents fail a recorded CRC (bit-rot); a torn
    # tail is *not* listed here — it lands in ``warnings`` instead.
    checksum_errors: list[int] = field(default_factory=list)

    def error(self, message: str) -> None:
        self.ok = False
        self.errors.append(message)

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def to_dict(self) -> dict:
        """Machine-readable form (``repro fsck --json``, CI, torture runs)."""
        return {
            "ok": self.ok,
            "errors": list(self.errors),
            "warnings": list(self.warnings),
            "live_inodes": self.live_inodes,
            "live_blocks": self.live_blocks,
            "checkpoint_seq": self.checkpoint_seq,
            "checksum_errors": list(self.checksum_errors),
        }

    def render(self) -> str:
        lines = [
            f"lfsck: {'clean' if self.ok else 'CORRUPT'} "
            f"(checkpoint {self.checkpoint_seq}, {self.live_inodes} inodes, "
            f"{self.live_blocks} live blocks)"
        ]
        lines.extend(f"  error: {e}" for e in self.errors)
        lines.extend(f"  warning: {w}" for w in self.warnings)
        return "\n".join(lines)


class _PeekDisk:
    """Read-only, time-free view over a disk image.

    Also quacks enough like :class:`Disk` (``geometry``, ``read_block``,
    ``read_blocks``) for the checkpoint reader to use it directly.
    """

    def __init__(self, disk: Disk) -> None:
        self._disk = disk
        self.geometry = disk.geometry

    def read(self, addr: int) -> bytes:
        return self._disk.peek(addr)

    def read_block(self, addr: int) -> bytes:
        return self._disk.peek(addr)

    def read_blocks(self, addr: int, count: int) -> list[bytes]:
        return [self._disk.peek(addr + i) for i in range(count)]


def _load_inode(view: _PeekDisk, block_size: int, addr: int, inum: int) -> Inode | None:
    try:
        for candidate in unpack_inode_block(view.read(addr), block_size):
            if candidate.inum == inum:
                return candidate
    except CorruptionError:
        return None
    return None


def _file_blocks(view: _PeekDisk, block_size: int, inode: Inode) -> list[tuple[str, int]]:
    """Every allocated (kind, addr) of a file, reading indirects via peek."""
    out: list[tuple[str, int]] = []
    per = addrs_per_indirect(block_size)
    nblocks = inode.nblocks(block_size)
    for fbn in range(min(nblocks, len(inode.direct))):
        if inode.direct[fbn] != NULL_ADDR:
            out.append(("data", inode.direct[fbn]))
    if nblocks > len(inode.direct) and inode.indirect != NULL_ADDR:
        out.append(("indirect", inode.indirect))
        l1 = unpack_addrs(view.read(inode.indirect), per)
        for slot in range(min(nblocks - len(inode.direct), per)):
            if l1[slot] != NULL_ADDR:
                out.append(("data", l1[slot]))
    first_double = len(inode.direct) + per
    if nblocks > first_double and inode.dindirect != NULL_ADDR:
        out.append(("indirect", inode.dindirect))
        l2 = unpack_addrs(view.read(inode.dindirect), per)
        remaining = nblocks - first_double
        for child_idx in range((remaining + per - 1) // per):
            if l2[child_idx] == NULL_ADDR:
                continue
            out.append(("indirect", l2[child_idx]))
            child = unpack_addrs(view.read(l2[child_idx]), per)
            for slot in range(min(remaining - child_idx * per, per)):
                if child[slot] != NULL_ADDR:
                    out.append(("data", child[slot]))
    return out


def _next_summary_offset(
    read, start: int, from_offset: int, seg_blocks: int, prev_seq: int, bs: int
) -> int | None:
    """Scan forward for the next current-epoch summary after a bad block.

    Sequence numbers are global and strictly increasing, so any parseable
    summary with ``seq > prev_seq`` belongs to the current epoch — stale
    residue from a segment's earlier life always carries a lower seq. A
    hit means the walk broke on a *damaged* summary rather than the end
    of the log, and tells us where to resume.
    """
    for off in range(from_offset + 1, seg_blocks):
        cand = try_parse_summary(read(start + off), bs)
        if (
            cand is not None
            and cand.seq > prev_seq
            and off + 1 + len(cand.entries) <= seg_blocks
        ):
            return off
    return None


def check_filesystem(disk: Disk) -> CheckReport:
    """Verify an unmounted LFS disk image; returns a :class:`CheckReport`."""
    report = CheckReport()
    view = _PeekDisk(disk)

    # 1. superblock
    try:
        sb = Superblock.from_bytes(view.read(0))
    except CorruptionError as exc:
        report.error(f"superblock: {exc}")
        return report
    layout = sb.layout()
    bs = sb.block_size

    # 2. checkpoint regions (peek-based: checking is time-free)
    best = None
    for region_b in (False, True):
        try:
            cp = read_checkpoint(view, layout, region_b=region_b)
        except CorruptionError:
            continue
        if best is None or cp.seq > best.seq:
            best = cp
    if best is None:
        report.error("no valid checkpoint region")
        return report
    report.checkpoint_seq = best.seq

    # 3. inode map
    imap = InodeMap(sb.max_inodes, bs // 32)
    for idx, addr in enumerate(best.imap_addrs):
        if addr != NULL_ADDR:
            imap.load_block(idx, view.read(addr))
    usage = SegmentUsageTable(layout.num_segments, sb.segment_bytes, bs // 24)
    for idx, addr in enumerate(best.usage_addrs):
        if addr != NULL_ADDR:
            usage.load_block(idx, view.read(addr))

    seg_lo = layout.segment_area_start
    seg_hi = seg_lo + layout.num_segments * layout.segment_blocks

    owners: dict[int, int] = {}  # block addr -> owning inum
    inodes: dict[int, Inode] = {}
    # Every block something current claims: file data/indirects, inode
    # blocks, and the checkpoint's inode-map and usage-table blocks.
    live_addrs: set[int] = {
        a for a in best.imap_addrs + best.usage_addrs if a != NULL_ADDR
    }
    expected_live = [0] * layout.num_segments

    def in_log(addr: int) -> bool:
        return seg_lo <= addr < seg_hi

    for inum in imap.allocated_inums():
        entry = imap.get(inum)
        if not in_log(entry.addr):
            report.error(f"inode {inum}: map address {entry.addr} outside the log")
            continue
        inode = _load_inode(view, bs, entry.addr, inum)
        if inode is None:
            report.error(f"inode {inum}: not found in its inode block at {entry.addr}")
            continue
        if inode.version != entry.version:
            report.error(
                f"inode {inum}: version {inode.version} != map version {entry.version}"
            )
        inodes[inum] = inode
        report.live_inodes += 1
        live_addrs.add(entry.addr)
        expected_live[layout.segment_of(entry.addr)] += INODE_SIZE
        for kind, addr in _file_blocks(view, bs, inode):
            if not in_log(addr):
                report.error(f"inode {inum}: {kind} block {addr} outside the log")
                continue
            if addr in owners:
                report.error(
                    f"block {addr} claimed by both inode {owners[addr]} and {inum}"
                )
            owners[addr] = inum
            live_addrs.add(addr)
            report.live_blocks += 1
            expected_live[layout.segment_of(addr)] += bs

    # 4. directory connectivity and link counts
    entry_counts: dict[int, int] = {}
    reachable: set[int] = set()

    def dir_entries(dir_inum: int, inode):
        """``(name, child)`` of one directory, bad blocks reported as reached."""
        addrs = [a for k, a in _file_blocks(view, bs, inode) if k == "data"]
        for addr in addrs:
            try:
                entries = dirfmt.parse_block(view.read(addr))
            except CorruptionError as exc:
                report.error(f"directory {dir_inum}: bad block at {addr}: {exc}")
                continue
            yield from entries

    # Depth-first from the root, a subdirectory entered where its entry
    # is met. The stack of half-read directories is explicit so that no
    # function refers to itself: a recursive closure is a reference
    # cycle, and would keep ``view`` (and the disk) alive after return.
    stack = []

    def enter(dir_inum: int) -> None:
        if dir_inum in reachable:
            report.error(f"directory cycle involving inode {dir_inum}")
            return
        reachable.add(dir_inum)
        stack.append((dir_inum, dir_entries(dir_inum, inodes[dir_inum])))

    if ROOT_INUM in inodes:
        enter(ROOT_INUM)
    else:
        report.error("root inode missing")
    while stack:
        dir_inum, entries = stack[-1]
        for name, child in entries:
            if child not in inodes:
                report.error(
                    f"directory {dir_inum}: entry {name!r} -> dead inode {child}"
                )
                continue
            entry_counts[child] = entry_counts.get(child, 0) + 1
            if inodes[child].is_directory:
                enter(child)
                break  # its entries come first; this directory resumes after
            reachable.add(child)
        else:
            stack.pop()

    for inum, inode in inodes.items():
        if inum == ROOT_INUM:
            continue
        if inum not in reachable:
            report.error(f"inode {inum} is allocated but unreachable from the root")
        refs = entry_counts.get(inum, 0)
        if refs != inode.nlink:
            report.error(
                f"inode {inum}: link count {inode.nlink} but {refs} directory entries"
            )

    # 5. usage-table consistency (the map/table/log blocks themselves are
    # live too, so the on-disk count may exceed the file-data estimate;
    # it must never be lower). Quarantined segments must hold nothing live:
    # the rescue moved every surviving block out before retiring them.
    for seg_no in range(layout.num_segments):
        rec = usage.get(seg_no)
        if rec.quarantined:
            if expected_live[seg_no]:
                report.error(
                    f"segment {seg_no}: quarantined but files still own "
                    f"{expected_live[seg_no]} bytes in it"
                )
            continue
        if rec.live_bytes + bs < expected_live[seg_no]:
            report.error(
                f"segment {seg_no}: usage table records {rec.live_bytes} live "
                f"bytes but files own at least {expected_live[seg_no]}"
            )

    # 6. log checksums: walk the current-epoch partial writes of every
    # live segment (plus the checkpoint's tail and its reserved successor,
    # which may carry post-checkpoint writes the table knows nothing
    # about) and verify each against its summary's CRCs.
    suspects = {
        seg_no
        for seg_no in range(layout.num_segments)
        if not usage.get(seg_no).clean and not usage.get(seg_no).quarantined
    }
    if 0 <= best.tail_segment < layout.num_segments:
        suspects.add(best.tail_segment)
    if best.next_segment != NO_SEGMENT and 0 <= best.next_segment < layout.num_segments:
        suspects.add(best.next_segment)

    for seg_no in sorted(suspects):
        start = layout.segment_start(seg_no)
        offset = 0
        prev_seq = 0
        # (summary offset, seq, implicated addrs) for each failing write
        bad_writes: list[tuple[int, int, list[int]]] = []
        last_write_offset = -1
        covered: set[int] = set()  # addrs some walked write accounts for
        while offset < layout.segment_blocks:
            summary = try_parse_summary(view.read(start + offset), bs)
            if (
                summary is None
                or summary.seq <= prev_seq
                or offset + 1 + len(summary.entries) > layout.segment_blocks
            ):
                resume = _next_summary_offset(
                    view.read, start, offset, layout.segment_blocks, prev_seq, bs
                )
                if resume is None:
                    break  # genuine end of this segment's log — or is it?
                # A later current-epoch write exists, so the walk broke on
                # a summary block that rot made unparseable.
                bad_writes.append((offset, prev_seq + 1, [start + offset]))
                covered.update(range(start + offset, start + resume))
                offset = resume
                continue
            prev_seq = summary.seq
            last_write_offset = offset
            covered.update(
                range(start + offset, start + offset + 1 + len(summary.entries))
            )
            payloads = [
                view.read(start + offset + 1 + i)
                for i in range(len(summary.entries))
            ]
            if not summary.verify(payloads):
                bad = [
                    start + offset + 1 + i
                    for i, entry in enumerate(summary.entries)
                    if entry.block_crc and checksum([payloads[i]]) != entry.block_crc
                ]
                # All payloads individually intact -> the summary block
                # itself carries the damage.
                bad_writes.append((offset, summary.seq, bad if bad else [start + offset]))
            offset += 1 + len(summary.entries)
        for write_offset, seq, bad_addrs in bad_writes:
            trailing = write_offset == last_write_offset
            if trailing and seq >= best.log_seq:
                # The newest write on the device failing its CRC is the
                # expected residue of a crash, not rot.
                report.warn(
                    f"segment {seg_no}: torn tail at offset {write_offset} "
                    f"(post-checkpoint seq {seq}; roll-forward will drop it)"
                )
            elif trailing and not any(a in live_addrs for a in bad_addrs):
                # A trailing write that fails its CRC without implicating a
                # single live block is droppable crash residue too. The seq
                # test above clears the hot log's tail, but a cold-cursor
                # tail (hot/cold segregation) is not checkpointed: after a
                # remount the hot log's seq moves past the torn cold write,
                # which nothing ever revisits or overwrites. Whatever it
                # carried was cleaner copies whose sources are still live
                # at their old addresses — nothing of value is lost.
                report.warn(
                    f"segment {seg_no}: dead torn write at offset {write_offset} "
                    f"(seq {seq}, no live block implicated; crash residue)"
                )
            else:
                report.checksum_errors.extend(bad_addrs)
                report.error(
                    f"segment {seg_no}: write at offset {write_offset} fails its "
                    f"summary CRC (blocks {bad_addrs})"
                )
        # Every live block must be described by some walked summary. A
        # stranded one means the walk ended early — i.e. the unparseable
        # block it stopped on was a *rotted summary*, not the end of the
        # log (the one case the CRC checks above cannot see, because the
        # CRCs lived in the block that rotted).
        stranded = sorted(
            a
            for a in live_addrs
            if start <= a < start + layout.segment_blocks and a not in covered
        )
        if stranded:
            # The stranded blocks' own CRCs rotted away with the summary,
            # so none of them can be verified: implicate them all.
            bad_summary = start + offset
            report.checksum_errors.append(bad_summary)
            report.checksum_errors.extend(stranded)
            report.error(
                f"segment {seg_no}: block {bad_summary} is unparseable but "
                f"live blocks {stranded} lie beyond it — its summary rotted, "
                f"stranding them unverifiable"
            )
    return report

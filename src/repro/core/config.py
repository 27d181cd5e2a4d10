"""Configuration and on-disk layout for Sprite LFS.

The layout is: block 0 holds the superblock, followed by the two fixed
checkpoint regions (Section 4.1), followed by the segment area which fills
the rest of the device. Everything else lives in the log.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.constants import INODE_MAP_ENTRY_SIZE, SEG_USAGE_ENTRY_SIZE
from repro.core.policy import CleaningPolicy


@dataclass
class LFSConfig:
    """Tunable parameters of a Sprite LFS instance.

    Defaults follow the paper: 4 KB blocks, 512 KB segments, cost-benefit
    cleaning, a 30-second checkpoint interval, and cleaning triggered when
    clean segments drop to a few tens. Cleaned blocks are always written
    back age-sorted (Section 3.5).

    Attributes:
        block_size: bytes per block; must match the disk's.
        segment_bytes: bytes per segment (512 KB or 1 MB in the paper).
        max_inodes: capacity of the inode map.
        cleaning_policy: greedy or cost-benefit segment selection.
        clean_low_water: start cleaning when clean segments fall below this.
        clean_high_water: stop cleaning once clean segments reach this.
        segments_per_pass: how many segments to read per cleaning pass
            (Section 3.4, policy 2).
        checkpoint_interval: simulated seconds between automatic
            checkpoints; 0 disables timed checkpoints.
        write_buffer_blocks: dirty blocks buffered in the cache before the
            file system flushes a partial segment to the log.
        reserved_segments: segments the allocator refuses to fill with new
            data so the cleaner always has workspace.
        cache_blocks: file-cache capacity in blocks (the paper's machine
            had 32 MB of memory).
        checkpoint_data_blocks: also checkpoint after this many log blocks
            have been written since the last checkpoint (0 disables). This
            is the paper's proposed alternative to periodic checkpoints:
            "this would set a limit on recovery time while reducing the
            checkpoint overhead when the file system is not operating at
            maximum throughput" (Section 4.1).
        selective_read_utilization: during cleaning, segments whose
            utilization is below this read only their summary and live
            blocks instead of the whole segment — the paper's untried
            optimization: "it may be faster to read just the live blocks,
            particularly if the utilization is very low" (Section 3.4).
            0.0 disables (always read whole segments, the paper's
            conservative assumption).
        battery_backed_buffer: model the paper's suggestion that "for
            applications that require better crash recovery, non-volatile
            RAM may be used for the write buffer" (Section 2.1): on an OS
            crash the battery holds the buffer up long enough to flush it
            and checkpoint, so no buffered writes are lost. A power cut
            that kills the disk itself still loses the in-flight write.
            NVM write-ahead staging, which survives a power cut too, is
            not a knob: pass an NVM device to ``LFS.format``/``LFS.mount``
            (:mod:`repro.core.nvlog`).
        media_error_budget: unrecoverable media/corruption errors the
            read path tolerates before the file system degrades to
            read-only mode (writes then fail fast as ``ReadOnlyError``
            instead of risking further damage). 0 disables degradation.
        hot_cold_segregation: keep a second open segment for cold data
            and route cleaner-rewritten (survivor, hence cold) blocks
            into it, so fresh hot writes and old cold data never mix in
            one segment. Survivor segments stay dense while hot segments
            decay toward empty, which cuts cleaner migration — the
            SSDFS argument, and the reason the default flash profile
            enables it. Cold-segment writes sit outside the roll-forward
            chain, which is safe precisely because every cleaning flush
            is followed by a checkpoint before any source segment is
            reclaimed.
        wear_leveling: nudge cleaner victim selection toward segments
            whose underlying erase blocks have the lowest wear, so
            reclaimed (and therefore soon re-erased) space rotates
            across the device. Only meaningful on a flash disk; off by
            default so HDD-profile victim selection stays bit-identical
            to the reference oracle.
        sync_flush_barrier: charge a synchronous flush's first disk
            request half a rotation of latency even when it lands
            sequentially — a lone synchronous writer has let the platter
            turn past the head, unlike back-to-back streamed requests.
            Off by default (keeps every existing recording bit-identical);
            the NVM-staging benchmark enables it in both arms so the
            no-NVM baseline pays the real small-sync cost.
    """

    block_size: int = 4096
    segment_bytes: int = 512 * 1024
    max_inodes: int = 32768
    cleaning_policy: CleaningPolicy = CleaningPolicy.COST_BENEFIT
    clean_low_water: int = 20
    clean_high_water: int = 40
    segments_per_pass: int = 10
    checkpoint_interval: float = 30.0
    write_buffer_blocks: int = 128
    reserved_segments: int = 8
    cache_blocks: int = 6144
    checkpoint_data_blocks: int = 0
    selective_read_utilization: float = 0.0
    battery_backed_buffer: bool = False
    media_error_budget: int = 8
    hot_cold_segregation: bool = False
    wear_leveling: bool = False
    sync_flush_barrier: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.cleaning_policy, CleaningPolicy):
            raise ValueError(
                f"cleaning_policy must be a CleaningPolicy, got {self.cleaning_policy!r}"
            )
        if self.block_size <= 0 or self.block_size % 512:
            raise ValueError("block_size must be a positive multiple of 512")
        if self.segment_bytes % self.block_size:
            raise ValueError("segment_bytes must be a multiple of block_size")
        if self.segment_blocks < 4:
            raise ValueError("segments must hold at least 4 blocks")
        if self.max_inodes < 2:
            raise ValueError("max_inodes must allow at least the root")
        if self.clean_high_water < self.clean_low_water:
            raise ValueError("clean_high_water must be >= clean_low_water")
        if self.segments_per_pass < 1:
            raise ValueError("segments_per_pass must be >= 1")
        if self.write_buffer_blocks < 1:
            raise ValueError("write_buffer_blocks must be >= 1")
        if self.reserved_segments < 2:
            raise ValueError("reserved_segments must be >= 2")
        if self.checkpoint_data_blocks < 0:
            raise ValueError("checkpoint_data_blocks must be >= 0")
        if not 0.0 <= self.selective_read_utilization <= 1.0:
            raise ValueError("selective_read_utilization must be in [0, 1]")
        if self.media_error_budget < 0:
            raise ValueError("media_error_budget must be >= 0")

    @property
    def segment_blocks(self) -> int:
        """Blocks per segment."""
        return self.segment_bytes // self.block_size

    @property
    def imap_entries_per_block(self) -> int:
        """Inode-map entries packed into one block."""
        return self.block_size // INODE_MAP_ENTRY_SIZE

    @property
    def imap_blocks(self) -> int:
        """Number of inode-map blocks covering ``max_inodes``."""
        per = self.imap_entries_per_block
        return (self.max_inodes + per - 1) // per

    @property
    def seg_usage_entries_per_block(self) -> int:
        """Segment-usage entries packed into one block."""
        return self.block_size // SEG_USAGE_ENTRY_SIZE


@dataclass(frozen=True)
class DiskLayout:
    """Computed placement of the fixed structures on a specific disk.

    Attributes:
        num_blocks: total blocks on the device.
        checkpoint_blocks: blocks per checkpoint region.
        checkpoint_a: first block of checkpoint region A.
        checkpoint_b: first block of checkpoint region B.
        segment_area_start: first block of segment 0.
        num_segments: whole segments that fit on the device.
    """

    num_blocks: int
    checkpoint_blocks: int
    checkpoint_a: int
    checkpoint_b: int
    segment_area_start: int
    num_segments: int
    segment_blocks: int = field(repr=False, default=0)

    def segment_start(self, seg_no: int) -> int:
        """First block address of segment ``seg_no``."""
        if seg_no < 0 or seg_no >= self.num_segments:
            raise ValueError(f"segment {seg_no} out of range")
        return self.segment_area_start + seg_no * self.segment_blocks

    def segment_of(self, addr: int) -> int:
        """Segment number containing block ``addr``."""
        if addr < self.segment_area_start:
            raise ValueError(f"block {addr} is not in the segment area")
        seg = (addr - self.segment_area_start) // self.segment_blocks
        if seg >= self.num_segments:
            raise ValueError(f"block {addr} is past the last segment")
        return seg


def compute_layout(
    config: LFSConfig, num_blocks: int, *, align: int = 1
) -> DiskLayout:
    """Place the superblock, checkpoint regions, and segment area.

    The checkpoint region must hold a header block, the addresses of every
    inode-map block and every segment-usage block, and a trailing timestamp
    block (the paper stores the checkpoint time in the *last* block so a
    torn checkpoint write is self-invalidating).

    ``align`` rounds the segment area start up to a multiple of that many
    blocks. Format passes the device's erase-block size here (real mkfs
    tools do the same), so on flash whole dead segments map onto whole
    erase blocks and TRIM can erase ahead of reuse; ``align=1`` (every
    non-flash device) reproduces the historical layout exactly.
    """
    seg_blocks = config.segment_blocks
    addrs_per_block = config.block_size // 8

    # Upper-bound the number of segments to size the usage-table address
    # list before the true segment count is known.
    max_segments = num_blocks // seg_blocks
    usage_blocks = (
        max_segments + config.seg_usage_entries_per_block - 1
    ) // config.seg_usage_entries_per_block

    total_addrs = config.imap_blocks + usage_blocks
    addr_blocks = (total_addrs + addrs_per_block - 1) // addrs_per_block
    checkpoint_blocks = 1 + addr_blocks + 1  # header + addresses + timestamp

    checkpoint_a = 1
    checkpoint_b = checkpoint_a + checkpoint_blocks
    segment_area_start = checkpoint_b + checkpoint_blocks
    if align > 1:
        segment_area_start = -(-segment_area_start // align) * align
    usable = num_blocks - segment_area_start
    num_segments = usable // seg_blocks
    if num_segments < config.reserved_segments + 4:
        raise ValueError(
            f"device too small: only {num_segments} segments fit "
            f"(need at least {config.reserved_segments + 4})"
        )
    return DiskLayout(
        num_blocks=num_blocks,
        checkpoint_blocks=checkpoint_blocks,
        checkpoint_a=checkpoint_a,
        checkpoint_b=checkpoint_b,
        segment_area_start=segment_area_start,
        num_segments=num_segments,
        segment_blocks=seg_blocks,
    )

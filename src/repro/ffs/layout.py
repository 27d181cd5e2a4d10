"""On-disk layout for the FFS baseline.

Block 0 is the superblock; the rest of the device is divided into
cylinder groups, each holding a slice of the inode table followed by data
blocks — the real FFS arrangement, which keeps a file's inode, its data,
and its directory close together ("logical locality"). Unlike LFS there
is no log: every structure has a home address, which is why small-file
metadata updates are seek-separated synchronous writes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.constants import INODE_SIZE
from repro.core.errors import InvalidOperationError


@dataclass(frozen=True)
class FFSLayout:
    """Computed placement of the FFS cylinder groups.

    Inode ``i`` lives in group ``i % num_groups`` at slot
    ``i // num_groups`` of that group's inode-table slice; its data is
    preferentially allocated from the same group.

    Attributes:
        num_blocks: device size in blocks.
        num_groups: cylinder groups.
        group_blocks: blocks per group (table slice + data).
        itab_blocks: inode-table blocks at the head of each group.
        inodes_per_block: packed inodes per table block.
        max_inodes: total inode capacity.
    """

    num_blocks: int
    num_groups: int
    group_blocks: int
    itab_blocks: int
    inodes_per_block: int
    max_inodes: int

    @property
    def data_blocks(self) -> int:
        """Blocks available for file data across all groups."""
        return self.num_groups * (self.group_blocks - self.itab_blocks)

    def group_start(self, group: int) -> int:
        """First block (the inode-table slice) of a group."""
        if group < 0 or group >= self.num_groups:
            raise InvalidOperationError(f"group {group} out of range")
        return 1 + group * self.group_blocks

    def group_data_start(self, group: int) -> int:
        """First data block of a group."""
        return self.group_start(group) + self.itab_blocks

    def group_for_inode(self, inum: int) -> int:
        """The group holding an inode (and preferring its data)."""
        return inum % self.num_groups

    def inode_addr(self, inum: int) -> tuple[int, int]:
        """(table block, slot) holding inode ``inum`` — a fixed location."""
        if inum <= 0 or inum >= self.max_inodes:
            raise InvalidOperationError(f"inode {inum} out of range")
        group = self.group_for_inode(inum)
        slot_in_group = inum // self.num_groups
        block = self.group_start(group) + slot_in_group // self.inodes_per_block
        if block >= self.group_data_start(group):
            raise InvalidOperationError(f"inode {inum} beyond the group's table slice")
        return block, slot_in_group % self.inodes_per_block

    def is_data_block(self, addr: int) -> bool:
        """True if ``addr`` lies in some group's data area."""
        if addr < 1 or addr >= 1 + self.num_groups * self.group_blocks:
            return False
        offset = (addr - 1) % self.group_blocks
        return offset >= self.itab_blocks

    def data_block_iter_from(self, goal: int):
        """Yield data-block addresses starting at ``goal``, wrapping once."""
        end = 1 + self.num_groups * self.group_blocks
        goal = min(max(goal, 1), end - 1)
        for addr in range(goal, end):
            if self.is_data_block(addr):
                yield addr
        for addr in range(1, goal):
            if self.is_data_block(addr):
                yield addr


def compute_ffs_layout(
    block_size: int, num_blocks: int, *, max_inodes: int = 32768, num_groups: int = 16
) -> FFSLayout:
    """Size and place the cylinder groups for a device."""
    if block_size < INODE_SIZE:
        raise InvalidOperationError("block size smaller than an inode record")
    if num_groups < 1:
        raise InvalidOperationError("need at least one cylinder group")
    inodes_per_block = block_size // INODE_SIZE
    group_blocks = (num_blocks - 1) // num_groups
    inodes_per_group = (max_inodes + num_groups - 1) // num_groups
    itab_blocks = (inodes_per_group + inodes_per_block - 1) // inodes_per_block
    if itab_blocks >= group_blocks:
        raise InvalidOperationError("device too small for the inode table")
    return FFSLayout(
        num_blocks=num_blocks,
        num_groups=num_groups,
        group_blocks=group_blocks,
        itab_blocks=itab_blocks,
        inodes_per_block=inodes_per_block,
        max_inodes=max_inodes,
    )

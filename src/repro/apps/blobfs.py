"""A BlobFS-like user-space filesystem (§9.6).

SPDK's BlobFS is a flat namespace of blobs backed by clusters of the
underlying block device, with a super-block region that is touched by every
metadata mutation — the paper observes "super-blocks in BlobFS are accessed
more frequently than other segments on the array".  This model reproduces
that structure:

* a 4 KiB super block at device offset 0, rewritten on every metadata
  mutation (blob create/resize);
* a metadata region holding per-blob cluster lists;
* cluster-granular allocation (1 MiB default) with a bump allocator and a
  free list.

All operations return simulation events; blob payloads are only carried in
functional mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.sim.core import AllOf, Environment, Event

SUPER_BLOCK_BYTES = 4096
METADATA_REGION_BYTES = 4 * 1024 * 1024


class BlobFsError(RuntimeError):
    """Invalid BlobFS operation (unknown blob, out-of-range read...)."""


@dataclass
class Blob:
    """An append-only file: an ordered list of device clusters."""

    blob_id: int
    name: str
    clusters: List[int] = field(default_factory=list)
    size: int = 0


class BlobFs:
    """A blob filesystem over a virtual block device."""

    def __init__(self, array, cluster_bytes: int = 1024 * 1024, capacity: Optional[int] = None) -> None:
        if cluster_bytes <= 0 or cluster_bytes % 4096:
            raise ValueError(f"cluster size must be a positive 4 KiB multiple, got {cluster_bytes}")
        self.array = array
        self.env: Environment = array.env
        self.cluster_bytes = cluster_bytes
        capacity = capacity or array.geometry.stripe_data_bytes * 4096
        data_base = SUPER_BLOCK_BYTES + METADATA_REGION_BYTES
        self.num_clusters = (capacity - data_base) // cluster_bytes
        if self.num_clusters < 1:
            raise ValueError("device too small for BlobFS")
        self.data_base = data_base
        self._blobs: Dict[int, Blob] = {}
        self._by_name: Dict[str, int] = {}
        self._next_blob_id = 0
        self._next_cluster = 0
        self._free: List[int] = []
        self.superblock_writes = 0
        self.metadata_writes = 0

    # -- allocation ------------------------------------------------------

    def _allocate_cluster(self) -> int:
        if self._free:
            return self._free.pop()
        if self._next_cluster >= self.num_clusters:
            raise BlobFsError("filesystem full")
        cluster = self._next_cluster
        self._next_cluster += 1
        return cluster

    def _cluster_offset(self, cluster: int) -> int:
        return self.data_base + cluster * self.cluster_bytes

    def _metadata_offset(self, blob_id: int) -> int:
        return SUPER_BLOCK_BYTES + (blob_id * 4096) % METADATA_REGION_BYTES

    def _write_metadata(self, blob: Blob) -> List[Event]:
        """Metadata mutation: blob table entry + the hot super block."""
        self.metadata_writes += 1
        self.superblock_writes += 1
        return [
            self.array.write(self._metadata_offset(blob.blob_id), 4096,
                             data=b"\0" * 4096 if self.array.functional else None),
            self.array.write(0, SUPER_BLOCK_BYTES,
                             data=b"\0" * SUPER_BLOCK_BYTES if self.array.functional else None),
        ]

    # -- namespace ---------------------------------------------------------

    def create_blob(self, name: str) -> Event:
        """Create an empty blob; the event's value is its id."""
        if name in self._by_name:
            raise BlobFsError(f"blob {name!r} already exists")
        blob = Blob(self._next_blob_id, name)
        self._next_blob_id += 1
        self._blobs[blob.blob_id] = blob
        self._by_name[name] = blob.blob_id
        return self.env.process(self._create(blob), name="blobfs.create")

    def _create(self, blob: Blob):
        yield AllOf(self.env, self._write_metadata(blob))
        return blob.blob_id

    def delete_blob(self, blob_id: int) -> Event:
        blob = self._require(blob_id)
        del self._blobs[blob_id]
        del self._by_name[blob.name]
        self._free.extend(blob.clusters)
        return self.env.process(self._create(blob), name="blobfs.delete")

    def lookup(self, name: str) -> int:
        if name not in self._by_name:
            raise BlobFsError(f"no blob named {name!r}")
        return self._by_name[name]

    def blob_size(self, blob_id: int) -> int:
        return self._require(blob_id).size

    def _require(self, blob_id: int) -> Blob:
        blob = self._blobs.get(blob_id)
        if blob is None:
            raise BlobFsError(f"unknown blob id {blob_id}")
        return blob

    # -- data path ------------------------------------------------------------

    def append(self, blob_id: int, nbytes: int, data=None) -> Event:
        """Append ``nbytes`` to the blob (allocating clusters as needed)."""
        if nbytes <= 0:
            raise ValueError(f"append size must be positive, got {nbytes}")
        blob = self._require(blob_id)
        return self.env.process(self._append(blob, nbytes, data), name="blobfs.append")

    def _append(self, blob: Blob, nbytes: int, data):
        events: List[Event] = []
        grew = False
        position = blob.size
        remaining = nbytes
        data_pos = 0
        while remaining > 0:
            within = position % self.cluster_bytes
            if position // self.cluster_bytes >= len(blob.clusters):
                blob.clusters.append(self._allocate_cluster())
                grew = True
            cluster = blob.clusters[position // self.cluster_bytes]
            take = min(self.cluster_bytes - within, remaining)
            payload = None
            if data is not None:
                payload = data[data_pos : data_pos + take]
            events.append(
                self.array.write(self._cluster_offset(cluster) + within, take, data=payload)
            )
            position += take
            data_pos += take
            remaining -= take
        blob.size = position
        if grew:
            events.extend(self._write_metadata(blob))
        yield AllOf(self.env, events)

    def read(self, blob_id: int, offset: int, nbytes: int) -> Event:
        """Read a byte range of the blob."""
        return self.env.process(self.read_body(blob_id, offset, nbytes), name="blobfs.read")

    def read_body(self, blob_id: int, offset: int, nbytes: int):
        """:meth:`read` as the generator its process runs, for a process
        that awaits the read at once: ``yield from
        env.call(fs.read_body(...))``."""
        blob = self._require(blob_id)
        if offset < 0 or nbytes <= 0 or offset + nbytes > blob.size:
            raise BlobFsError(
                f"read [{offset}, {offset + nbytes}) out of range for blob of size {blob.size}"
            )
        return self._read(blob, offset, nbytes)

    def _read(self, blob: Blob, offset: int, nbytes: int):
        within = offset % self.cluster_bytes
        if within + nbytes <= self.cluster_bytes:  # one cluster: in this process
            cluster = blob.clusters[offset // self.cluster_bytes]
            return (yield from self.env.call(
                self.array.read_body(self._cluster_offset(cluster) + within, nbytes)
            ))
        events: List[Event] = []
        position = offset
        remaining = nbytes
        while remaining > 0:
            within = position % self.cluster_bytes
            cluster = blob.clusters[position // self.cluster_bytes]
            take = min(self.cluster_bytes - within, remaining)
            events.append(self.array.read(self._cluster_offset(cluster) + within, take))
            position += take
            remaining -= take
        results = []
        for event in events:
            results.append((yield event))
        if results and results[0] is not None:
            return np.concatenate(results)
        return None

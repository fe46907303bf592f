"""Registry snapshot helpers under the import path the ledger reads.

``benchmarks/ledger/probes.py`` imports these two names from
``repro.shard.live``; the ledger owns that import, so this module stays
until the ledger repoints it to :mod:`repro.obs.registry`, where the
helpers live.  The live plane is one gateway; only the simulated plane
shards (DESIGN.md §14).
"""

from repro.obs.registry import merge_registry_snapshots, snapshot_registry

__all__ = ["merge_registry_snapshots", "snapshot_registry"]

"""Storage engine substrate: records, slotted pages, devices, the page
store, the buffer pool.

This package is the from-scratch replacement for the SQL Server storage
engine that the paper's prototype extends:

* :mod:`repro.storage.record` — the record layout of Figure 1, with the
  14-byte versioning tail (VP, Ttime, SN) and delete stubs,
* :mod:`repro.storage.page` — 8 KB slotted pages with intra-page version
  chains and the two extra header fields (history pointer, split time) of
  Section 3.2,
* :mod:`repro.storage.device` — the one seam durable bytes pass through
  (a ``bytearray`` or a file),
* :mod:`repro.storage.disk` — the page store on a device, with physical
  I/O accounting used by the benchmark cost model,
* :mod:`repro.storage.buffer` — a buffer pool with latching, dirty tracking,
  2Q eviction, batched write-back, and pre-flush hooks (the hook is how
  flush-triggered lazy timestamping is wired in, Section 2.2).
"""

"""Vectorized columnar replay hot path.

Every batch replay it can run goes through it —
:meth:`repro.workload.engine.WorkloadEngine.replay` decides.  Three
cooperating pieces:

* :mod:`repro.columnar.draws` — pre-drawn random blocks wrapping the
  blockable per-function streams (gateway, network, reliability,
  spurious), installed at runtime-state creation;
* :mod:`repro.columnar.records` — struct-of-arrays invocation storage
  with lazy record materialisation;
* :mod:`repro.columnar.engine` — the flat replay loop.

Every result is bit-identical to the generator loop
(:meth:`~repro.workload.engine.WorkloadEngine.stream`); the differential
tier (``tests/test_columnar_equivalence.py``) and the golden fixtures
prove it.
"""

from .draws import BLOCK, ExponentialBlock, LognormalBlock, UniformBlock, install_draw_blocks
from .records import ColumnarRecordBlock, LaneMeta

__all__ = [
    "BLOCK",
    "ColumnarRecordBlock",
    "ExponentialBlock",
    "LaneMeta",
    "LognormalBlock",
    "UniformBlock",
    "install_draw_blocks",
]

"""Vectorized columnar replay hot path.

Every uncontrolled replay without kernel execution runs on it — batch
replays and :meth:`~repro.workload.engine.WorkloadEngine.stream` alike
(``WorkloadEngine._generator_loop`` decides).  Three cooperating pieces:

* :mod:`repro.columnar.draws` — pre-drawn random blocks wrapping the
  blockable per-function streams (gateway, network, reliability,
  spurious), installed at runtime-state creation;
* :mod:`repro.columnar.records` — row storage of the invocation step's
  values with lazy record materialisation;
* :mod:`repro.columnar.engine` — the flat replay loop, yielding rows or
  folding into an accumulator.

Every result is bit-identical to the generator loop
(``WorkloadEngine._run``); the differential tier
(``tests/test_columnar_equivalence.py``) and the golden fixtures prove
it.
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

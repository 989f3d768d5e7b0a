"""Lowering + execution stack: run schedules on real transports.

The simulator answers "is this schedule legal and how long does the
model say it takes"; this package answers "does it actually run".  A
:class:`~repro.schedule.ops.Schedule` is *lowered* to frozen per-rank
:class:`~repro.exec.program.RankProgram`\\ s (ordered send/recv/reduce
instructions with data dependencies instead of times), *executed* on a
pluggable transport (``inproc`` threads, ``mp`` processes, ``mpi``
when mpi4py is present), and *verified* by comparing the delivered
``(src, dst, item)`` multiset byte-for-byte against the simulator's
realized schedule::

    from repro.exec import execute
    from repro.registry import plan

    result = execute(plan("broadcast", P=8, L=6, o=2, g=4),
                     transport="inproc", verify=True)
    result.trace.num_delivered  # 7 messages, same multiset as the sim

:class:`~repro.comm.VirtualCluster` runs ``registry.plan`` schedules
through this package on real Python values, ``repro run`` does the
same from the CLI, and the ``lower`` pass exposes the compilation step
to ``repro opt`` pipelines.
"""

from repro.exec.errors import (
    ExecError,
    ExecTimeout,
    ExecVerificationError,
    LoweringError,
    TransportUnavailable,
)
from repro.exec.lower import lower_schedule
from repro.exec.program import (
    ExecPlan,
    RankProgram,
    RecvInstr,
    ReduceInstr,
    SendInstr,
)
from repro.exec.run import ExecResult, execute
from repro.exec.trace import ExecTrace, sim_delivered, verify_against_sim
from repro.exec.transport import (
    InprocTransport,
    MpiTransport,
    MpTransport,
    Transport,
    available_transports,
    get_transport,
)

__all__ = [
    "ExecError",
    "ExecPlan",
    "ExecResult",
    "ExecTimeout",
    "ExecTrace",
    "ExecVerificationError",
    "InprocTransport",
    "LoweringError",
    "MpTransport",
    "MpiTransport",
    "RankProgram",
    "RecvInstr",
    "ReduceInstr",
    "SendInstr",
    "Transport",
    "TransportUnavailable",
    "available_transports",
    "execute",
    "get_transport",
    "lower_schedule",
    "sim_delivered",
    "verify_against_sim",
]

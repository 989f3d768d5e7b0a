"""The benchmark's workloads, by name.

Each workload class takes ``(seed, tracer, workdir)``, does its set-up
(inputs, reference digests, warm-up) in the constructor and then serves
the closed loop in ``perfbench/child.py``:

* ``whole_blocks`` -- a timed run holds a multiple of this many blocks;
* ``host_normalized`` -- whether its operation times are CPU time, to be
  scaled to a host of nominal speed like every set-up time
  (``run.host_factor``);
* ``block(index)`` -- the index-th block of seeded jobs;
* ``run(job)`` -- one operation: the timed calls into the program;
* ``check(job, out)`` -- untimed correctness checks, returning the list
  of problems and the number of plan sends the operation carried;
* ``on_error(job, exc)`` -- bookkeeping for an operation that raised;
* ``layer_metrics()`` -- the workload's own per-layer counts;
* ``close()`` -- stop what the set-up started.
"""

from workloads.exec_mix import ExecMix
from workloads.plan_scale import PlanScale
from workloads.serve_zipf import ServeZipf

WORKLOADS = {cls.name: cls for cls in (ExecMix, PlanScale, ServeZipf)}

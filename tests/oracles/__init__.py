"""Scalar reference implementations (test oracles).

The library computes every schedule property on one backend: the
columnar numpy kernels (plus the implicit IR's closed forms).  The
pure-Python loops below are the executable specification those kernels
are property-tested against.  They are deliberately simple — per-send
``SendOp`` loops over flat LogP pricing — and run only under the test
suite and the perf gates in ``benchmarks/``:

* :mod:`tests.oracles.analysis` — availability, completion times and
  per-processor broadcast delays;
* :mod:`tests.oracles.validate` — the LogP legality checker;
* :mod:`tests.oracles.transform` — the schedule passes (shift, remap,
  reverse, concat, restrict and the three normalizers);
* :mod:`tests.oracles.builders` — the per-send loops of the broadcast
  tree emitter and the all-to-all builders.

Every oracle is flat-machine only: per-edge (hierarchical) pricing
exists solely in the columnar kernels.
"""

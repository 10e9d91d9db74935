"""repro — distributed power grid state estimation on (simulated) HPC clusters.

Reproduction of Liu, Jiang, Jin, Rice, Chen:
"Distributing Power Grid State Estimation on HPC Clusters — A System
Architecture Prototype" (IPDPS Workshops, 2012).

Subpackages
-----------
grid
    Power network model: buses, branches, admittance matrices, AC/DC power
    flow, IEEE test cases and a synthetic grid generator.
measurements
    Measurement model: h(x), sparse Jacobians, noisy measurement generation,
    SCADA scan cycles and PMU streams, observable metering placement.
estimation
    Weighted-least-squares state estimation with direct and preconditioned
    conjugate-gradient solvers, observability analysis, bad-data detection.
partition
    Multilevel k-way weighted graph partitioner (METIS stand-in) with
    adaptive repartitioning.
dse
    Distributed state estimation: decomposition into subsystems, boundary /
    sensitive bus identification, the two-step DSE algorithm and the
    hierarchical baseline.
cluster
    Simulated HPC clusters: discrete-event engine, topology and cost models,
    an MPI-like communicator, and the simulated executor.
middleware
    MeDICi-style relay middleware: a mux router hub (localhost TCP or
    in-process) with one duplex link per estimator, the framed wire
    formats, and the fabric whose send / recv are the client API.
parallel
    Pluggable executors (serial / process pool) for AC contingency
    sweeps and the scenario service's AC contingency batches; a DC sweep
    is one batched solve and a DSE stage one stacked solve, neither uses
    one.
core
    The paper's contribution: graph-weight estimation, the mapping method
    that places subsystems onto clusters for DSE Step 1 / Step 2, and the
    end-to-end architecture and session runner.

Importing the package sets every loaded OpenBLAS to one thread
(:mod:`repro.blas_threads`): the parallelism is the program's own.
"""

from repro.blas_threads import pin_one_thread

pin_one_thread()

__version__ = "0.1.0"

__all__ = [
    "grid",
    "measurements",
    "estimation",
    "partition",
    "dse",
    "cluster",
    "middleware",
    "parallel",
    "core",
]

# hang: spins forever — a deliberately non-terminating guest.
#
# Robustness fixture, not a workload: campaigns and the fabric service
# must turn this guest into a structured `timeout` result row (via the
# Device cycle watchdog or a `[faults] watchdog =` override) instead of
# wedging the host. Pinned by tests/test_faults.cpp; see
# docs/ROBUSTNESS.md. Pair it with any kernel's harness,
# e.g. `kernel = "vecadd"` + `program = "examples/kernels/hang.s"` —
# the loop never returns, so argument layout is irrelevant.

main:
spin:
    j spin

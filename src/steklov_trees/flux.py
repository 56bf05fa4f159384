"""No names: the flux identities live in the test oracles.

Boundary fluxes, their potentials, cut sums and the inverse quadratic
form Q(z) are test-only references, in tests/oracles.py; the package
evaluates that form once, as the leaf distance Gram in spectral.py.
This file stays, empty, only because the benchmark's tracer imports
every module it lists by name; it goes when that list goes.
"""

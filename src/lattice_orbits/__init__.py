"""Exact arithmetic for vectors of the Enriques anti-invariant lattice.

The package classifies primitive vectors of E8(2) + U(2) + U (and of any
tagged base(2) + U lattice) up to isometry: norm parity splits the orbits, the
characteristic/ordinary distinction separates the two orbits of even half-norm,
and a norm-halving change of coordinates decides that distinction three
independent ways. Brute-force oracles recheck everything the fast paths claim.
Import names from their modules (lattice_orbits.orbits, .oracle, ...); the
package root exports only __version__, so a command loads only what it runs.
"""

__version__ = "0.1.0"

"""Canonical bases of higher-level Fock spaces, in exact arithmetic.

Modules
-------
laurent        exact Laurent polynomials over Z
combinatorics  multipartitions, nodes, the charged dominance order
fock           the level-l v-deformed Fock space and its operators
crystal        good nodes, crystal components, graph export
canonical      bar-invariant canonical bases via peeling and elimination
factorize      decomposition matrices, relative factor extraction, checks
abacus         level-l abacus correspondence and reading sequences
cli            the fockdec command line
"""

__version__ = "0.1.0"
